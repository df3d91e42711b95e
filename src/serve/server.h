// Persistent doseopt job server.
//
// Accepts framed JSON job requests (serve/protocol.h) over a Unix-domain
// socket and/or a loopback TCP socket, schedules them on worker lanes built
// from common::ThreadPool, and answers with the same golden metrics a
// direct flow::run_flow call produces -- bit-identical, because each job
// runs serial-inline on its lane (nested parallel loops detect the pool
// region and collapse), so results cannot depend on lane count or on what
// other jobs are in flight.
//
// Scheduling: a bounded FIFO queue feeds the lanes.  A full queue rejects
// the request immediately with kJobRejected carrying retry_after_ms
// (backpressure; the client backs off instead of the server buffering
// unboundedly).  Jobs carry optional deadlines, checked cooperatively
// before each expensive stage; an expired or disconnected job is dropped
// without running its solve.  stop() performs a graceful drain: no new
// work is accepted, queued jobs finish, then sessions are snapshotted.
//
// Telemetry: per-stage wall clocks (context build, coefficient fit, flow
// solve), queue depth, accept/complete/reject/expire counters, and session
// cache hit rates, served as JSON via kMetricsRequest and metrics().
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "serve/cache.h"
#include "serve/histogram.h"
#include "serve/job.h"
#include "serve/json.h"

namespace doseopt::serve {

struct ServerOptions {
  std::string uds_path;  ///< "" = no Unix-domain listener
  int tcp_port = -1;     ///< -1 = no TCP listener; 0 = kernel-assigned
  int lanes = 2;         ///< concurrent worker lanes
  std::size_t queue_capacity = 8;    ///< pending jobs before backpressure
  double retry_after_ms = 250.0;     ///< hint sent with kJobRejected
  std::string snapshot_dir;          ///< "" = no warm-start persistence
  bool verbose = false;              ///< log job lifecycle to stderr
  /// Self-healing knobs.  A failing job is re-attempted in place up to
  /// job_max_attempts times (deterministic backoff between attempts,
  /// attempt k waiting k x 10 ms scaled by a jitter in [1/2, 1));
  /// breaker_threshold consecutive *exhausted* jobs trip the circuit
  /// breaker, which sheds new requests with kJobRejected (retry_after =
  /// remaining cooldown) until breaker_cooldown_ms elapses.
  int job_max_attempts = 2;
  int breaker_threshold = 8;      ///< 0 disables the breaker
  double breaker_cooldown_ms = 1000.0;
  /// Fleet knobs.  result_store_dir points every worker of a fleet at one
  /// shared content-addressed on-disk result cache (see serde/result_store);
  /// eager_snapshots persists a session right after its cold build+solve so
  /// a respawned replacement worker restores it instead of
  /// re-characterizing; allow_crash_faults opts this process in to the
  /// fleet.worker_crash injection point (SIGKILL mid-job) -- only fleet
  /// workers launched with --crash-faults enable it, so in-process test
  /// servers never kill the test binary.
  std::string result_store_dir;
  bool eager_snapshots = false;
  bool allow_crash_faults = false;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind listeners and start the accept and worker threads.  Throws
  /// doseopt::Error when no listener is configured or binding fails.
  void start();

  /// Graceful shutdown: stop accepting, drain the queue, join all
  /// threads, snapshot sessions.  Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Actual TCP port after start() (useful with tcp_port = 0).
  int tcp_port() const { return tcp_port_; }

  /// Ask the server to leave wait_for_shutdown(); safe from a signal
  /// handler (atomic flag, polled).  Does not stop the server by itself.
  void request_shutdown() {
    shutdown_requested_.store(true, std::memory_order_release);
  }

  /// Block until request_shutdown() or a kShutdown frame arrives.
  void wait_for_shutdown() const;

  /// Telemetry snapshot (also served via kMetricsRequest).
  Json metrics() const;

  SessionCache& cache() { return cache_; }

 private:
  struct Connection {
    int fd = -1;
    std::mutex write_mu;             ///< frames are written atomically
    std::atomic<bool> open{true};    ///< false after EOF or error
    std::thread reader;
  };

  struct PendingJob {
    std::shared_ptr<Connection> conn;
    JobSpec spec;
    std::chrono::steady_clock::time_point enqueued;
  };

  void accept_loop(int listen_fd);
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void handle_request(const std::shared_ptr<Connection>& conn,
                      const std::string& payload);
  void worker_loop(int lane);
  /// Retry wrapper: run_job() with per-job re-attempts, breaker accounting,
  /// and the terminal kJobError reply when attempts are exhausted.
  void execute_job(PendingJob job);
  /// One attempt of a job (cache lookup, context build, flow solve, reply).
  void run_job(const PendingJob& job);
  void reply(const std::shared_ptr<Connection>& conn, std::uint32_t type,
             const Json& payload);
  /// True (and counts/answers the job as expired) when past its deadline.
  bool expired(const PendingJob& job);
  /// Circuit breaker: remaining shed window (0 = closed), and the
  /// consecutive-failure bump that may open it.
  double breaker_remaining_ms() const;
  void note_job_failure();

  ServerOptions options_;
  SessionCache cache_;
  std::unique_ptr<ThreadPool> pool_;

  int uds_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  std::vector<std::thread> accept_threads_;
  std::thread scheduler_thread_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;

  mutable std::mutex queue_mu_;  ///< mutable: metrics() reads queue depth
  std::condition_variable queue_cv_;   ///< workers wait for jobs
  std::condition_variable drain_cv_;   ///< stop() waits for empty + idle
  std::deque<PendingJob> queue_;
  std::size_t in_flight_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};  ///< reject new, drain queued
  std::atomic<bool> shutdown_requested_{false};
  std::chrono::steady_clock::time_point start_time_;

  std::atomic<std::uint64_t> jobs_accepted_{0};
  std::atomic<std::uint64_t> jobs_invalid_{0};  ///< failed parse / validation
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> jobs_failed_{0};
  std::atomic<std::uint64_t> jobs_rejected_{0};
  std::atomic<std::uint64_t> jobs_expired_{0};
  std::atomic<std::uint64_t> jobs_dropped_{0};  ///< client went away
  std::atomic<std::uint64_t> jobs_retried_{0};  ///< in-place re-attempts
  std::atomic<std::uint64_t> jobs_shed_{0};     ///< rejected by open breaker
  std::atomic<std::uint64_t> accept_errors_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  /// Circuit breaker state: consecutive exhausted jobs, trip count, and the
  /// shed-until instant (microseconds since start_time_; 0 = closed).
  std::atomic<int> breaker_failures_{0};
  std::atomic<std::uint64_t> breaker_trips_{0};
  std::atomic<std::int64_t> breaker_open_until_us_{0};
  /// Stage wall clocks, microseconds, summed over jobs.
  std::atomic<std::uint64_t> stage_context_us_{0};
  std::atomic<std::uint64_t> stage_coeff_us_{0};
  std::atomic<std::uint64_t> stage_flow_us_{0};
  /// Per-stage and end-to-end latency distributions (the sums above give
  /// averages; the histograms expose tails for the fleet dashboard).
  LatencyHistogram hist_job_;      ///< enqueue -> reply, memo hits included
  LatencyHistogram hist_context_;
  LatencyHistogram hist_coeff_;
  LatencyHistogram hist_flow_;
  /// DMopt cutting-plane telemetry, summed over jobs (the structured
  /// replacement for the DOSEOPT_TRACE stderr dump).
  std::atomic<std::uint64_t> dmopt_rounds_{0};
  std::atomic<std::uint64_t> dmopt_admm_iterations_{0};
  std::atomic<std::uint64_t> dmopt_cuts_{0};
  std::atomic<std::uint64_t> dmopt_assembly_us_{0};
  std::atomic<std::uint64_t> dmopt_solve_us_{0};
  std::atomic<std::uint64_t> dmopt_extract_us_{0};
};

}  // namespace doseopt::serve
