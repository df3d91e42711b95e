// Front-end router of the doseopt serving fleet.
//
// Speaks the same framed protocol as a single doseopt_server (clients need
// no changes), but instead of solving, each job is routed by its session
// key over a consistent hash ring to one of the supervisor's worker
// processes and proxied there: session affinity keeps a design's expensive
// context on one worker, while different sessions spread across the fleet.
//
// Forwarding discipline:
//  - per-worker bounded link pools; when every link is busy past the
//    acquire bound, the router itself sheds the job with kJobRejected
//    (router-level backpressure on top of worker-level backpressure);
//  - a worker's kJobRejected / kJobError / kJobResult frames pass through
//    to the client UNTOUCHED, so worker backpressure (retry_after_ms,
//    breaker_open) propagates end to end;
//  - a transport failure (worker died mid-job, link torn, injected
//    fleet.route_drop) replays the job: the link is discarded, the ring is
//    re-consulted against the current alive mask, and the job is
//    re-forwarded with deterministic backoff until the supervisor's
//    respawned worker answers.  Replays are safe because workers memoize
//    results by content hash in the shared store -- a job whose reply was
//    lost returns its bit-identical document without re-solving;
//  - hedged requests (opt-in): when the session owner has not answered
//    after an adaptive delay derived from its forward-latency histogram
//    (2 x p99, clamped to [20 ms, hedge_max_ms]), the
//    job is duplicated to another alive worker.  The first kJobResult wins
//    and is relayed immediately; the late loser's document is normalized
//    and bit-compared against the winner's before being discarded
//    (hedge_mismatches counts disagreements -- always zero, because job
//    results are content-addressed and deterministic).  Non-result replies
//    defer to the primary leg's outcome so backpressure semantics are
//    unchanged.  Every forward -- first attempt, replay, or hedge leg --
//    carries the *remaining* deadline budget, not the original deadline.
//
// kMetricsRequest answers with one aggregated JSON document: router
// counters plus each worker's liveness, respawn count, and live metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fleet/ring.h"
#include "fleet/supervisor.h"
#include "serve/client.h"
#include "serve/histogram.h"
#include "serve/json.h"

namespace doseopt::fleet {

struct RouterOptions {
  std::string uds_path;  ///< "" = no Unix-domain listener
  int tcp_port = -1;     ///< -1 = no TCP listener; 0 = kernel-assigned
  int links_per_worker = 4;            ///< concurrent jobs per worker link pool
  double retry_after_ms = 100.0;       ///< hint on router-level sheds
  int forward_max_attempts = 40;       ///< transport replays per job
  // Hedged requests (off by default: a second in-flight copy of every slow
  // job doubles worst-case fleet load, so the caller opts in).
  bool hedge_enabled = false;
  double hedge_max_ms = 1000.0;  ///< ceiling (also used below min samples)
  int hedge_min_samples = 16;    ///< histogram depth before adapting
  /// Duration of an injected fleet.worker_stall firing (the fault point
  /// sleeps this long in the forward path, modeling a wedged worker).
  double stall_inject_ms = 1500.0;
  bool verbose = false;
};

class Router {
 public:
  /// The supervisor must outlive the router and be started first.
  Router(RouterOptions options, Supervisor& supervisor);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  void start();
  void stop();  ///< close listeners, join connection threads.  Idempotent.

  bool running() const { return running_.load(std::memory_order_acquire); }
  int tcp_port() const { return tcp_port_; }

  void request_shutdown() {
    shutdown_requested_.store(true, std::memory_order_release);
  }
  void wait_for_shutdown() const;

  /// Aggregated fleet telemetry (also served via kMetricsRequest).
  serve::Json metrics();

 private:
  struct Connection {
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> open{true};
    std::thread reader;
  };

  /// Bounded pool of framed links to one worker.  Links are plain
  /// serve::Clients created lazily; a link that saw a transport error is
  /// discarded (never returned), and a worker generation change drops the
  /// whole idle set, so links never outlive the process they point at.
  struct LinkPool {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<serve::Client> idle;
    int outstanding = 0;  ///< links handed out or alive in `idle`
    std::uint64_t generation = 0;  ///< supervisor generation the pool tracks
  };

  void accept_loop(int listen_fd);
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void handle_job(const std::shared_ptr<Connection>& conn,
                  const std::string& payload);
  /// Forward one job to `worker` with the remaining deadline budget
  /// (elapsed since `t0` already subtracted); throws on transport failure.
  serve::Client::Reply forward_leg(int worker, const serve::JobSpec& spec,
                                   std::chrono::steady_clock::time_point t0);
  /// forward_leg wrapped in the hedging protocol (a plain synchronous leg
  /// when hedging is disabled).
  serve::Client::Reply forward_hedged(int worker, const serve::JobSpec& spec,
                                      std::chrono::steady_clock::time_point t0);
  /// The adaptive hedge delay for `worker` (factor x p99, clamped).
  double hedge_delay_ms(int worker) const;
  void reply(const std::shared_ptr<Connection>& conn, std::uint32_t type,
             const serve::Json& payload);

  /// Take a link to `worker` (connecting if below capacity); returns a
  /// disengaged optional when the pool stays saturated past the bound.
  /// Throws on connect failure (treated as a transport error upstream).
  std::optional<serve::Client> acquire_link(int worker);
  void release_link(int worker, serve::Client link);
  void discard_link(int worker);

  RouterOptions options_;
  Supervisor& supervisor_;
  HashRing ring_;
  std::vector<std::unique_ptr<LinkPool>> pools_;

  int uds_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  std::vector<std::thread> accept_threads_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::chrono::steady_clock::time_point start_time_;

  std::atomic<std::uint64_t> jobs_accepted_{0};
  std::atomic<std::uint64_t> jobs_invalid_{0};    ///< failed parse / validation
  std::atomic<std::uint64_t> jobs_forwarded_{0};  ///< forward attempts
  std::atomic<std::uint64_t> jobs_completed_{0};  ///< kJobResult relayed
  std::atomic<std::uint64_t> jobs_replayed_{0};   ///< transport retries
  std::atomic<std::uint64_t> jobs_shed_{0};       ///< router-level rejects
  std::atomic<std::uint64_t> rejects_relayed_{0};  ///< worker backpressure
  std::atomic<std::uint64_t> errors_relayed_{0};   ///< worker kJobError
  std::atomic<std::uint64_t> route_drops_{0};      ///< injected drops
  std::atomic<std::uint64_t> jobs_expired_{0};     ///< died during replay
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> accept_errors_{0};
  std::atomic<std::uint64_t> hedges_launched_{0};  ///< second legs started
  std::atomic<std::uint64_t> hedges_won_{0};       ///< hedge leg answered 1st
  std::atomic<std::uint64_t> hedges_skipped_{0};   ///< no alternate worker
  std::atomic<std::uint64_t> hedge_mismatches_{0}; ///< loser != winner bytes
  std::atomic<std::uint64_t> stalls_injected_{0};  ///< fleet.worker_stall
  /// Hedge legs still running after their job's reply went out; stop()
  /// waits for zero before tearing down the link pools they borrow from.
  std::atomic<int> inflight_legs_{0};
  serve::LatencyHistogram hist_route_;  ///< client frame in -> reply out
  /// Per-worker submit round-trip latency; feeds the adaptive hedge delay.
  /// Injected stalls are excluded so the delay tracks *healthy* latency.
  std::vector<std::unique_ptr<serve::LatencyHistogram>> hist_forward_;
};

/// No-op symbol anchor: referencing it from a test binary forces the
/// linker to keep the fleet translation units of the static libraries, so
/// the fleet.* fault points register even when the test never routes a
/// job.
void ensure_fleet_fault_points_linked();

}  // namespace doseopt::fleet
