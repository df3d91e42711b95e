#include "serve/server.h"

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "faultinject/fault.h"
#include "flow/optimize.h"
#include "serve/protocol.h"
#include "serve/socket.h"

namespace doseopt::serve {

namespace {

faultinject::FaultPoint g_fault_job("serve.job");
/// Kills the worker process with SIGKILL mid-job -- after the session is
/// built but before the solve finishes, the hardest recovery case for the
/// fleet supervisor.  Honored only when ServerOptions::allow_crash_faults
/// is set (fleet workers launched with --crash-faults); an in-process test
/// server ignores a firing instead of killing the test binary.
faultinject::FaultPoint g_fault_worker_crash("fleet.worker_crash");

double ms_since(std::chrono::steady_clock::time_point t0,
                std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

std::uint64_t us_since(std::chrono::steady_clock::time_point t0,
                       std::chrono::steady_clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.snapshot_dir, options_.result_store_dir) {}

Server::~Server() { stop(); }

void Server::start() {
  DOSEOPT_CHECK(!running(), "serve: server already started");
  DOSEOPT_CHECK(!options_.uds_path.empty() || options_.tcp_port >= 0,
                "serve: no listener configured (need uds_path or tcp_port)");
  DOSEOPT_CHECK(options_.lanes >= 1, "serve: lanes must be >= 1");
  DOSEOPT_CHECK(options_.queue_capacity >= 1,
                "serve: queue_capacity must be >= 1");

  stopping_.store(false, std::memory_order_release);
  shutdown_requested_.store(false, std::memory_order_release);
  start_time_ = std::chrono::steady_clock::now();

  if (!options_.uds_path.empty()) uds_fd_ = listen_unix(options_.uds_path);
  if (options_.tcp_port >= 0) tcp_fd_ = listen_tcp(options_.tcp_port,
                                                   &tcp_port_);

  // Worker lanes: a dedicated scheduler thread enters parallel_for_lane
  // with one long-lived iteration per lane.  Inside an iteration the pool
  // region is active, so every parallel loop a job issues runs inline --
  // each job is serial on its lane, which is what makes results
  // bit-identical to a direct flow:: call at any lane count.
  pool_ = std::make_unique<ThreadPool>(options_.lanes);
  const std::size_t lanes = static_cast<std::size_t>(options_.lanes);
  scheduler_thread_ = std::thread([this, lanes] {
    pool_->parallel_for_lane(
        lanes, [this](int, std::size_t i) { worker_loop(static_cast<int>(i)); });
  });

  if (uds_fd_ >= 0)
    accept_threads_.emplace_back([this, fd = uds_fd_] { accept_loop(fd); });
  if (tcp_fd_ >= 0)
    accept_threads_.emplace_back([this, fd = tcp_fd_] { accept_loop(fd); });

  running_.store(true, std::memory_order_release);
  if (options_.verbose)
    std::fprintf(stderr, "[serve] listening (lanes=%d queue=%zu)\n",
                 options_.lanes, options_.queue_capacity);
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);

  // Stop accepting: closing the listeners makes accept_connection return
  // -1 in the accept loops.
  if (uds_fd_ >= 0) close_socket(std::exchange(uds_fd_, -1));
  if (tcp_fd_ >= 0) close_socket(std::exchange(tcp_fd_, -1));
  for (auto& t : accept_threads_) t.join();
  accept_threads_.clear();

  // Graceful drain: new requests are rejected (stopping_), queued jobs run
  // to completion and their replies still go out over open connections.
  queue_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    drain_cv_.wait(lock,
                   [this] { return queue_.empty() && in_flight_ == 0; });
  }
  queue_cv_.notify_all();
  if (scheduler_thread_.joinable()) scheduler_thread_.join();
  pool_.reset();

  // Unblock and join the connection readers; each reader closes its own fd
  // on exit.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (const auto& conn : conns)
    if (conn->open.load(std::memory_order_acquire))
      ::shutdown(conn->fd, SHUT_RDWR);
  for (const auto& conn : conns)
    if (conn->reader.joinable()) conn->reader.join();

  cache_.save_all();
  if (!options_.uds_path.empty()) ::unlink(options_.uds_path.c_str());
  if (options_.verbose) std::fprintf(stderr, "[serve] stopped\n");
}

void Server::wait_for_shutdown() const {
  while (!shutdown_requested_.load(std::memory_order_acquire) &&
         running_.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

void Server::accept_loop(int listen_fd) {
  int consecutive_errors = 0;
  while (true) {
    int fd = -1;
    try {
      fd = accept_connection(listen_fd);
    } catch (const std::exception& e) {
      // A transient accept failure (EMFILE, injected fault) must not kill
      // the listener; the pending connection stays queued for the retry.
      accept_errors_.fetch_add(1, std::memory_order_relaxed);
      if (options_.verbose)
        std::fprintf(stderr, "[serve] accept error: %s\n", e.what());
      if (++consecutive_errors >= 16) return;  // persistent: give up
      continue;
    }
    consecutive_errors = 0;
    if (fd < 0) return;  // listener closed by stop()
    if (stopping_.load(std::memory_order_acquire)) {
      close_socket(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void Server::reader_loop(const std::shared_ptr<Connection>& conn) {
  try {
    Frame frame;
    while (read_frame(conn->fd, &frame)) {
      switch (frame.type) {
        case MsgType::kPing:
          reply(conn, static_cast<std::uint32_t>(MsgType::kPong),
                Json::object());
          break;
        case MsgType::kJobRequest:
          handle_request(conn, frame.payload);
          break;
        case MsgType::kMetricsRequest:
          reply(conn, static_cast<std::uint32_t>(MsgType::kMetricsReply),
                metrics());
          break;
        case MsgType::kShutdown:
          if (options_.verbose)
            std::fprintf(stderr, "[serve] shutdown requested by client\n");
          request_shutdown();
          break;
        default: {
          Json err = Json::object();
          err.set("error", Json::string("unexpected frame type"));
          reply(conn, static_cast<std::uint32_t>(MsgType::kJobError), err);
          break;
        }
      }
    }
  } catch (const std::exception& e) {
    // Corrupt framing (bad magic, oversized length, torn frame, injected
    // read fault): the stream is desynchronized, so the only safe recovery
    // is a best-effort protocol-error reply followed by dropping the
    // connection.  The lane is untouched -- queued jobs from this
    // connection still run (and are dropped on reply).
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    if (options_.verbose)
      std::fprintf(stderr, "[serve] connection error: %s\n", e.what());
    Json err = Json::object();
    err.set("error", Json::string(e.what()));
    err.set("protocol_error", Json::boolean(true));
    reply(conn, static_cast<std::uint32_t>(MsgType::kJobError), err);
  }
  conn->open.store(false, std::memory_order_release);
  close_socket(conn->fd);
}

void Server::handle_request(const std::shared_ptr<Connection>& conn,
                            const std::string& payload) {
  JobSpec spec;
  try {
    spec = JobSpec::from_json(Json::parse(payload));
  } catch (const std::exception& e) {
    jobs_invalid_.fetch_add(1, std::memory_order_relaxed);
    Json err = Json::object();
    err.set("error", Json::string(e.what()));
    reply(conn, static_cast<std::uint32_t>(MsgType::kJobError), err);
    return;
  }

  const auto reject = [&](double retry_after_ms, bool breaker_open) {
    jobs_rejected_.fetch_add(1, std::memory_order_relaxed);
    Json r = Json::object();
    if (!spec.id.empty()) r.set("id", Json::string(spec.id));
    r.set("retry_after_ms", Json::number(retry_after_ms));
    if (breaker_open) r.set("breaker_open", Json::boolean(true));
    reply(conn, static_cast<std::uint32_t>(MsgType::kJobRejected), r);
  };

  if (stopping_.load(std::memory_order_acquire)) {
    reject(options_.retry_after_ms, false);
    return;
  }
  // Open circuit breaker: shed load instead of queueing work the solver is
  // currently failing; the hint is the breaker's remaining cooldown.
  if (const double shed_ms = breaker_remaining_ms(); shed_ms > 0.0) {
    jobs_shed_.fetch_add(1, std::memory_order_relaxed);
    reject(shed_ms, true);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() >= options_.queue_capacity) {
      reject(options_.retry_after_ms, false);
      return;
    }
    queue_.push_back(PendingJob{conn, std::move(spec),
                                std::chrono::steady_clock::now()});
  }
  jobs_accepted_.fetch_add(1, std::memory_order_relaxed);
  queue_cv_.notify_one();
}

void Server::worker_loop(int lane) {
  while (true) {
    PendingJob job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) return;  // stopping and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    if (options_.verbose)
      std::fprintf(stderr, "[serve] lane %d: job '%s' (%s)\n", lane,
                   job.spec.id.c_str(), job.spec.design.c_str());
    execute_job(std::move(job));
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --in_flight_;
    }
    drain_cv_.notify_all();
  }
}

bool Server::expired(const PendingJob& job) {
  if (job.spec.deadline_ms <= 0.0) return false;
  const double waited =
      ms_since(job.enqueued, std::chrono::steady_clock::now());
  if (waited <= job.spec.deadline_ms) return false;
  jobs_expired_.fetch_add(1, std::memory_order_relaxed);
  Json err = Json::object();
  if (!job.spec.id.empty()) err.set("id", Json::string(job.spec.id));
  err.set("error", Json::string("deadline exceeded"));
  err.set("expired", Json::boolean(true));
  err.set("waited_ms", Json::number(waited));
  reply(job.conn, static_cast<std::uint32_t>(MsgType::kJobError), err);
  return true;
}

void Server::execute_job(PendingJob job) {
  const int max_attempts = std::max(1, options_.job_max_attempts);
  std::string last_error;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    try {
      faultinject::maybe_throw(g_fault_job, "job execution");
      run_job(job);
      breaker_failures_.store(0, std::memory_order_relaxed);
      return;
    } catch (const std::exception& e) {
      last_error = e.what();
      if (attempt < max_attempts &&
          job.conn->open.load(std::memory_order_acquire)) {
        jobs_retried_.fetch_add(1, std::memory_order_relaxed);
        if (options_.verbose)
          std::fprintf(stderr, "[serve] job '%s' attempt %d failed: %s\n",
                       job.spec.id.c_str(), attempt, e.what());
        // Deterministic backoff: a pure function of (job key, attempt), so
        // a replayed faulted run schedules identically.
        constexpr double kRetryBackoffMs = 10.0;
        Rng jitter(job.spec.job_key() ^ static_cast<std::uint64_t>(attempt));
        const double wait_ms = kRetryBackoffMs *
                               static_cast<double>(attempt) *
                               (0.5 + 0.5 * jitter.uniform());
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<long>(wait_ms * 1000.0)));
      }
    }
  }
  // Attempts exhausted: report, and count toward tripping the breaker.
  jobs_failed_.fetch_add(1, std::memory_order_relaxed);
  note_job_failure();
  Json err = Json::object();
  if (!job.spec.id.empty()) err.set("id", Json::string(job.spec.id));
  err.set("error", Json::string(last_error));
  err.set("attempts", Json::number(static_cast<double>(max_attempts)));
  reply(job.conn, static_cast<std::uint32_t>(MsgType::kJobError), err);
}

double Server::breaker_remaining_ms() const {
  const std::int64_t until =
      breaker_open_until_us_.load(std::memory_order_acquire);
  if (until == 0) return 0.0;
  const std::int64_t now_us = static_cast<std::int64_t>(
      us_since(start_time_, std::chrono::steady_clock::now()));
  return now_us >= until ? 0.0
                         : static_cast<double>(until - now_us) / 1000.0;
}

void Server::note_job_failure() {
  if (options_.breaker_threshold <= 0) return;
  const int failures =
      breaker_failures_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (failures < options_.breaker_threshold) return;
  breaker_failures_.store(0, std::memory_order_relaxed);
  breaker_trips_.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t now_us = static_cast<std::int64_t>(
      us_since(start_time_, std::chrono::steady_clock::now()));
  breaker_open_until_us_.store(
      now_us +
          static_cast<std::int64_t>(options_.breaker_cooldown_ms * 1000.0),
      std::memory_order_release);
  if (options_.verbose)
    std::fprintf(stderr, "[serve] circuit breaker open for %.0fms\n",
                 options_.breaker_cooldown_ms);
}

void Server::run_job(const PendingJob& job) {
  using clock = std::chrono::steady_clock;
  {
    if (!job.conn->open.load(std::memory_order_acquire)) {
      jobs_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (expired(job)) return;

    // Memoized identical job: the flow is deterministic, so the stored
    // result document is exactly what a fresh solve would produce.
    const std::uint64_t job_key = job.spec.job_key();
    if (const auto cached = cache_.lookup_result(job_key)) {
      Json out = Json::object();
      if (!job.spec.id.empty()) out.set("id", Json::string(job.spec.id));
      out.set("status", Json::string("ok"));
      Json cache_info = Json::object();
      cache_info.set("context_hit", Json::boolean(true));
      cache_info.set("snapshot_restored", Json::boolean(false));
      cache_info.set("coefficients_hit", Json::boolean(true));
      cache_info.set("result_hit", Json::boolean(true));
      out.set("cache", std::move(cache_info));
      Json stages = Json::object();
      stages.set("context_ms", Json::number(0.0));
      stages.set("coefficients_ms", Json::number(0.0));
      stages.set("flow_ms", Json::number(0.0));
      out.set("stage_ms", std::move(stages));
      out.set("result", Json::parse(*cached));
      jobs_completed_.fetch_add(1, std::memory_order_relaxed);
      // Record before replying: a client that reads its reply and
      // immediately polls metrics must already see this job counted.
      hist_job_.record(ms_since(job.enqueued, clock::now()));
      reply(job.conn, static_cast<std::uint32_t>(MsgType::kJobResult), out);
      return;
    }

    auto session = cache_.acquire(job.spec);
    std::lock_guard<std::mutex> session_lock(session->mu);
    // Re-check after possibly waiting on another job of the same session.
    if (!job.conn->open.load(std::memory_order_acquire)) {
      jobs_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (expired(job)) return;

    const auto t0 = clock::now();
    const bool ctx_hit = session->ctx != nullptr;
    bool restored = false;
    cache_.populate(*session, job.spec, &restored);
    flow::DesignContext& ctx = *session->ctx;
    const auto t1 = clock::now();
    stage_context_us_.fetch_add(us_since(t0, t1), std::memory_order_relaxed);
    hist_context_.record(ms_since(t0, t1));
    // Mid-job crash injection: the session exists but the client has no
    // answer yet, so the supervisor must respawn the worker and the router
    // must replay the job for the client to ever see a result.
    if (options_.allow_crash_faults && g_fault_worker_crash.should_fire()) {
      std::fprintf(stderr, "[serve] fleet.worker_crash fired: killing pid %d "
                   "mid-job '%s'\n",
                   static_cast<int>(::getpid()), job.spec.id.c_str());
      ::kill(::getpid(), SIGKILL);
    }
    if (expired(job)) return;

    const bool coeff_hit = ctx.has_coefficients(job.spec.modulate_width);
    cache_.count_coeff(coeff_hit);
    ctx.coefficients(job.spec.modulate_width);
    const auto t2 = clock::now();
    stage_coeff_us_.fetch_add(us_since(t1, t2), std::memory_order_relaxed);
    hist_coeff_.record(ms_since(t1, t2));
    if (expired(job)) return;

    Json result_json;
    if (job.spec.mode == "ssta_yield") {
      // Analytic yield job: no dose optimization, nothing mutated -- one
      // canonical-form pass (plus the optional MC cross-check) over the
      // session's nominal recipe.
      result_json = ssta_yield_result_to_json(
          flow::run_ssta_yield(ctx, job.spec.ssta_options()));
    } else {
      // dosePl mutates the context's placement and parasitics in place;
      // save and restore them so the cached session stays pristine for
      // later jobs.
      std::optional<place::Placement> saved_placement;
      std::optional<extract::Parasitics> saved_parasitics;
      if (job.spec.run_dosepl) {
        saved_placement = ctx.placement();
        saved_parasitics = ctx.parasitics();
      }
      flow::FlowResult result;
      try {
        result = flow::run_flow(ctx, job.spec.flow_options());
      } catch (...) {
        // The flow may have died mid-dosePl with the placement half-moved;
        // restore before rethrowing so the session stays usable for the
        // retry (and for unrelated jobs sharing it).
        if (saved_placement.has_value()) {
          ctx.placement() = std::move(*saved_placement);
          ctx.parasitics() = std::move(*saved_parasitics);
        }
        throw;
      }
      if (saved_placement.has_value()) {
        ctx.placement() = std::move(*saved_placement);
        ctx.parasitics() = std::move(*saved_parasitics);
      }

      const dmopt::CutTelemetry& ct = result.dmopt.telemetry;
      dmopt_rounds_.fetch_add(static_cast<std::uint64_t>(ct.total_rounds),
                              std::memory_order_relaxed);
      dmopt_admm_iterations_.fetch_add(
          static_cast<std::uint64_t>(ct.total_admm_iterations),
          std::memory_order_relaxed);
      dmopt_cuts_.fetch_add(ct.total_cuts, std::memory_order_relaxed);
      dmopt_assembly_us_.fetch_add(ct.assembly_ns / 1000,
                                   std::memory_order_relaxed);
      dmopt_solve_us_.fetch_add(ct.solve_ns / 1000,
                                std::memory_order_relaxed);
      dmopt_extract_us_.fetch_add(ct.extract_ns / 1000,
                                  std::memory_order_relaxed);
      result_json = flow_result_to_json(result);
    }
    const auto t3 = clock::now();
    stage_flow_us_.fetch_add(us_since(t2, t3), std::memory_order_relaxed);
    hist_flow_.record(ms_since(t2, t3));

    // Fleet workers persist a freshly built session right away: if this
    // process is killed later, the respawned replacement restores from the
    // snapshot instead of paying the characterization again.
    if (options_.eager_snapshots && !ctx_hit && !restored)
      cache_.save_session(*session);

    Json out = Json::object();
    if (!job.spec.id.empty()) out.set("id", Json::string(job.spec.id));
    out.set("status", Json::string("ok"));
    Json cache_info = Json::object();
    cache_info.set("context_hit", Json::boolean(ctx_hit));
    cache_info.set("snapshot_restored", Json::boolean(restored));
    cache_info.set("coefficients_hit", Json::boolean(coeff_hit));
    cache_info.set("result_hit", Json::boolean(false));
    out.set("cache", std::move(cache_info));
    Json stages = Json::object();
    stages.set("context_ms", Json::number(ms_since(t0, t1)));
    stages.set("coefficients_ms", Json::number(ms_since(t1, t2)));
    stages.set("flow_ms", Json::number(ms_since(t2, t3)));
    out.set("stage_ms", std::move(stages));
    cache_.store_result(job_key, result_json.dump());
    out.set("result", std::move(result_json));

    jobs_completed_.fetch_add(1, std::memory_order_relaxed);
    // As above: count into the histogram before the client can observe the
    // reply and poll metrics.
    hist_job_.record(ms_since(job.enqueued, clock::now()));
    reply(job.conn, static_cast<std::uint32_t>(MsgType::kJobResult), out);
  }
}

void Server::reply(const std::shared_ptr<Connection>& conn,
                   std::uint32_t type, const Json& payload) {
  if (!conn->open.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(conn->write_mu);
  try {
    write_frame(conn->fd, static_cast<MsgType>(type), payload.dump());
  } catch (const std::exception& e) {
    // Peer went away mid-reply (or the write faulted): the frame may be
    // half-written, so the stream is unusable.  Shut the socket down so a
    // client blocked in recv sees EOF immediately (instead of waiting out
    // its io timeout) and can reconnect + resubmit; the memoized result
    // makes the retry bit-identical and cheap.
    conn->open.store(false, std::memory_order_release);
    ::shutdown(conn->fd, SHUT_RDWR);
    if (options_.verbose)
      std::fprintf(stderr, "[serve] dropped reply: %s\n", e.what());
  }
}

Json Server::metrics() const {
  Json m = Json::object();
  m.set("lanes", Json::number(options_.lanes));
  m.set("queue_capacity",
        Json::number(static_cast<double>(options_.queue_capacity)));
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    m.set("queue_depth", Json::number(static_cast<double>(queue_.size())));
    m.set("in_flight", Json::number(static_cast<double>(in_flight_)));
  }
  const auto n = [](const std::atomic<std::uint64_t>& a) {
    return Json::number(
        static_cast<double>(a.load(std::memory_order_relaxed)));
  };
  Json jobs = Json::object();
  jobs.set("accepted", n(jobs_accepted_));
  jobs.set("invalid", n(jobs_invalid_));
  jobs.set("completed", n(jobs_completed_));
  jobs.set("failed", n(jobs_failed_));
  jobs.set("rejected", n(jobs_rejected_));
  jobs.set("expired", n(jobs_expired_));
  jobs.set("dropped", n(jobs_dropped_));
  jobs.set("retried", n(jobs_retried_));
  jobs.set("shed", n(jobs_shed_));
  m.set("jobs", std::move(jobs));

  Json breaker = Json::object();
  breaker.set("open", Json::boolean(breaker_remaining_ms() > 0.0));
  breaker.set("trips", n(breaker_trips_));
  breaker.set("consecutive_failures",
              Json::number(static_cast<double>(
                  breaker_failures_.load(std::memory_order_relaxed))));
  m.set("breaker", std::move(breaker));

  Json transport = Json::object();
  transport.set("accept_errors", n(accept_errors_));
  transport.set("protocol_errors", n(protocol_errors_));
  m.set("transport", std::move(transport));

  const SessionCache::Stats s = cache_.stats();
  Json c = Json::object();
  c.set("sessions", Json::number(static_cast<double>(s.sessions)));
  c.set("context_hits", Json::number(static_cast<double>(s.context_hits)));
  c.set("context_misses",
        Json::number(static_cast<double>(s.context_misses)));
  c.set("snapshots_restored",
        Json::number(static_cast<double>(s.snapshots_restored)));
  c.set("restore_failures",
        Json::number(static_cast<double>(s.restore_failures)));
  c.set("save_failures", Json::number(static_cast<double>(s.save_failures)));
  c.set("coefficient_hits", Json::number(static_cast<double>(s.coeff_hits)));
  c.set("coefficient_misses",
        Json::number(static_cast<double>(s.coeff_misses)));
  c.set("result_hits", Json::number(static_cast<double>(s.result_hits)));
  c.set("result_misses", Json::number(static_cast<double>(s.result_misses)));
  c.set("result_disk_hits",
        Json::number(static_cast<double>(s.result_disk_hits)));
  c.set("result_quarantined",
        Json::number(static_cast<double>(s.result_quarantined)));
  c.set("result_store_failures",
        Json::number(static_cast<double>(s.result_store_failures)));
  c.set("characterize_calls",
        Json::number(static_cast<double>(s.characterize_calls)));
  m.set("cache", std::move(c));

  Json stages = Json::object();
  const auto us_ms = [](const std::atomic<std::uint64_t>& a) {
    return Json::number(
        static_cast<double>(a.load(std::memory_order_relaxed)) / 1000.0);
  };
  stages.set("context_ms", us_ms(stage_context_us_));
  stages.set("coefficients_ms", us_ms(stage_coeff_us_));
  stages.set("flow_ms", us_ms(stage_flow_us_));
  m.set("stage_ms_total", std::move(stages));

  Json hist = Json::object();
  hist.set("job", hist_job_.to_json());
  hist.set("context", hist_context_.to_json());
  hist.set("coefficients", hist_coeff_.to_json());
  hist.set("flow", hist_flow_.to_json());
  m.set("latency_histograms", std::move(hist));

  Json dmopt = Json::object();
  dmopt.set("cut_rounds", n(dmopt_rounds_));
  dmopt.set("admm_iterations", n(dmopt_admm_iterations_));
  dmopt.set("cuts", n(dmopt_cuts_));
  dmopt.set("assembly_ms", us_ms(dmopt_assembly_us_));
  dmopt.set("solve_ms", us_ms(dmopt_solve_us_));
  dmopt.set("extract_ms", us_ms(dmopt_extract_us_));
  m.set("dmopt", std::move(dmopt));

  m.set("uptime_ms",
        Json::number(ms_since(start_time_, std::chrono::steady_clock::now())));
  return m;
}

}  // namespace doseopt::serve
