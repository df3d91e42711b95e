#include "fleet/router.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string_view>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "faultinject/fault.h"
#include "serde/journal.h"
#include "serde/result_store.h"
#include "serve/job.h"
#include "serve/protocol.h"
#include "serve/socket.h"

namespace doseopt::fleet {

using serve::Frame;
using serve::Json;
using serve::MsgType;

namespace {

/// Fires in the router's forward path, after a worker was chosen but
/// before the frame goes out -- models a link torn mid-route.  The router
/// treats a firing exactly like a real transport failure: discard the
/// link, back off, replay.
faultinject::FaultPoint g_fault_route_drop("fleet.route_drop");

/// Fires in the forward path after a link is acquired: sleeps
/// stall_inject_ms while holding the link, modeling a worker that is alive
/// but wedged -- the scenario hedged requests exist to cut the tail of.
faultinject::FaultPoint g_fault_worker_stall("fleet.worker_stall");

/// Thrown by forward_leg when the target pool stays saturated past the
/// acquire bound; not a std::exception on purpose, so the replay catch
/// cannot swallow it (a shed answers the client immediately).
struct RouterShed {};

/// Thrown by forward_leg when the job's deadline budget is exhausted at
/// submit time; like RouterShed, deliberately not a std::exception so it
/// cannot be mistaken for a transport failure and replayed.
struct RouterExpired {};

/// Virtual nodes per worker on the consistent hash ring.
constexpr int kRingReplicas = 64;

double ms_since(std::chrono::steady_clock::time_point t0,
                std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

void ensure_fleet_fault_points_linked() {
  // Touch one symbol per translation unit that hosts a fleet.* fault
  // point; a static-library member with no referenced symbol is dropped by
  // the linker, and its points would never register.
  (void)g_fault_route_drop.name();    // this TU: fleet.route_drop + worker_stall
  (void)serde::result_path(".", 0);               // serde: fleet.cache_corrupt
  (void)serde::journal_segment_path(".", 0);      // serde: campaign.journal_torn
}

Router::Router(RouterOptions options, Supervisor& supervisor)
    : options_(std::move(options)),
      supervisor_(supervisor),
      ring_(supervisor.workers(), kRingReplicas) {
  DOSEOPT_CHECK(options_.links_per_worker >= 1,
                "fleet: links_per_worker must be >= 1");
  pools_.reserve(static_cast<std::size_t>(supervisor_.workers()));
  hist_forward_.reserve(static_cast<std::size_t>(supervisor_.workers()));
  for (int i = 0; i < supervisor_.workers(); ++i) {
    pools_.push_back(std::make_unique<LinkPool>());
    hist_forward_.push_back(std::make_unique<serve::LatencyHistogram>());
  }
}

Router::~Router() { stop(); }

void Router::start() {
  DOSEOPT_CHECK(!running(), "fleet: router already started");
  DOSEOPT_CHECK(!options_.uds_path.empty() || options_.tcp_port >= 0,
                "fleet: router needs uds_path and/or tcp_port");
  stopping_.store(false, std::memory_order_release);
  shutdown_requested_.store(false, std::memory_order_release);
  start_time_ = std::chrono::steady_clock::now();

  if (!options_.uds_path.empty())
    uds_fd_ = serve::listen_unix(options_.uds_path);
  if (options_.tcp_port >= 0)
    tcp_fd_ = serve::listen_tcp(options_.tcp_port, &tcp_port_);

  if (uds_fd_ >= 0)
    accept_threads_.emplace_back([this, fd = uds_fd_] { accept_loop(fd); });
  if (tcp_fd_ >= 0)
    accept_threads_.emplace_back([this, fd = tcp_fd_] { accept_loop(fd); });
  running_.store(true, std::memory_order_release);
  if (options_.verbose)
    std::fprintf(stderr, "[fleet] router up (%d workers, %d links each)\n",
                 supervisor_.workers(), options_.links_per_worker);
}

void Router::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);

  if (uds_fd_ >= 0) serve::close_socket(std::exchange(uds_fd_, -1));
  if (tcp_fd_ >= 0) serve::close_socket(std::exchange(tcp_fd_, -1));
  for (auto& t : accept_threads_) t.join();
  accept_threads_.clear();

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

  // Detached hedge legs may still hold links (their job already answered);
  // wait them out before invalidating the pools they release into.
  while (inflight_legs_.load(std::memory_order_acquire) > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  for (auto& pool : pools_) {
    std::lock_guard<std::mutex> lock(pool->mu);
    pool->idle.clear();
    pool->outstanding = 0;
  }
  if (!options_.uds_path.empty()) ::unlink(options_.uds_path.c_str());
  if (options_.verbose) std::fprintf(stderr, "[fleet] router stopped\n");
}

void Router::wait_for_shutdown() const {
  while (!shutdown_requested_.load(std::memory_order_acquire) &&
         running_.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

void Router::accept_loop(int listen_fd) {
  int consecutive_errors = 0;
  while (true) {
    int fd = -1;
    try {
      fd = serve::accept_connection(listen_fd);
    } catch (const std::exception& e) {
      accept_errors_.fetch_add(1, std::memory_order_relaxed);
      if (options_.verbose)
        std::fprintf(stderr, "[fleet] accept error: %s\n", e.what());
      if (++consecutive_errors >= 16) return;
      continue;
    }
    consecutive_errors = 0;
    if (fd < 0) return;
    if (stopping_.load(std::memory_order_acquire)) {
      serve::close_socket(fd);
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

void Router::reader_loop(const std::shared_ptr<Connection>& conn) {
  try {
    Frame frame;
    while (serve::read_frame(conn->fd, &frame)) {
      switch (frame.type) {
        case MsgType::kPing:
          reply(conn, static_cast<std::uint32_t>(MsgType::kPong),
                Json::object());
          break;
        case MsgType::kJobRequest:
          handle_job(conn, frame.payload);
          break;
        case MsgType::kMetricsRequest:
          reply(conn, static_cast<std::uint32_t>(MsgType::kMetricsReply),
                metrics());
          break;
        case MsgType::kShutdown:
          if (options_.verbose)
            std::fprintf(stderr, "[fleet] shutdown requested by client\n");
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
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    if (options_.verbose)
      std::fprintf(stderr, "[fleet] connection error: %s\n", e.what());
    Json err = Json::object();
    err.set("error", Json::string(e.what()));
    err.set("protocol_error", Json::boolean(true));
    reply(conn, static_cast<std::uint32_t>(MsgType::kJobError), err);
  }
  conn->open.store(false, std::memory_order_release);
  serve::close_socket(conn->fd);
}

std::optional<serve::Client> Router::acquire_link(int worker) {
  LinkPool& pool = *pools_[static_cast<std::size_t>(worker)];
  std::unique_lock<std::mutex> lock(pool.mu);
  // A respawned worker invalidates every idle link (they point at the dead
  // process); reset the pool to the new generation.
  const std::uint64_t generation = supervisor_.generation(worker);
  if (pool.generation != generation) {
    pool.outstanding -= static_cast<int>(pool.idle.size());
    pool.idle.clear();
    pool.generation = generation;
  }
  // A pool still busy after this long sheds the job.
  constexpr double kLinkAcquireTimeoutMs = 2000.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(
          static_cast<long>(kLinkAcquireTimeoutMs * 1000.0));
  while (pool.idle.empty() && pool.outstanding >= options_.links_per_worker) {
    if (pool.cv.wait_until(lock, deadline) == std::cv_status::timeout &&
        pool.idle.empty() && pool.outstanding >= options_.links_per_worker)
      return std::nullopt;  // saturated: caller sheds
  }
  if (!pool.idle.empty()) {
    serve::Client link = std::move(pool.idle.back());
    pool.idle.pop_back();
    return link;
  }
  ++pool.outstanding;
  lock.unlock();
  try {
    // No io timeout: a job may legitimately run long; a dead worker closes
    // the socket, which surfaces as EOF immediately.
    serve::ClientOptions copts;
    copts.connect_timeout_ms = 1000;
    return serve::Client::connect_unix_path(
        supervisor_.worker_socket(worker), copts);
  } catch (...) {
    lock.lock();
    --pool.outstanding;
    pool.cv.notify_one();
    throw;
  }
}

void Router::release_link(int worker, serve::Client link) {
  LinkPool& pool = *pools_[static_cast<std::size_t>(worker)];
  std::lock_guard<std::mutex> lock(pool.mu);
  if (pool.generation == supervisor_.generation(worker) && link.connected())
    pool.idle.push_back(std::move(link));
  else
    --pool.outstanding;  // stale or broken: drop instead of recycling
  pool.cv.notify_one();
}

void Router::discard_link(int worker) {
  LinkPool& pool = *pools_[static_cast<std::size_t>(worker)];
  std::lock_guard<std::mutex> lock(pool.mu);
  --pool.outstanding;
  pool.cv.notify_one();
}

serve::Client::Reply Router::forward_leg(
    int worker, const serve::JobSpec& spec,
    std::chrono::steady_clock::time_point t0) {
  auto link = acquire_link(worker);
  if (!link.has_value()) throw RouterShed{};
  try {
    if (g_fault_worker_stall.should_fire()) {
      // A wedged-but-alive worker: hold the link and go quiet.  Sleeping
      // *before* the timed submit keeps the stall out of hist_forward_, so
      // the adaptive hedge delay keeps tracking healthy latency.
      stalls_injected_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<long>(options_.stall_inject_ms * 1000.0)));
    }
    faultinject::maybe_throw(g_fault_route_drop, "route");
    // Each leg -- first attempt, replay, or hedge -- gets the budget that
    // is actually left, so a replayed job cannot spend 2x its deadline.
    serve::JobSpec fwd = spec;
    if (spec.deadline_ms > 0.0) {
      const double remaining =
          spec.deadline_ms - ms_since(t0, std::chrono::steady_clock::now());
      if (remaining <= 0.0) throw RouterExpired{};
      fwd.deadline_ms = remaining;
    }
    const auto t_submit = std::chrono::steady_clock::now();
    serve::Client::Reply r = link->submit(fwd);
    hist_forward_[static_cast<std::size_t>(worker)]->record(
        ms_since(t_submit, std::chrono::steady_clock::now()));
    release_link(worker, std::move(*link));
    return r;
  } catch (...) {
    discard_link(worker);
    throw;
  }
}

double Router::hedge_delay_ms(int worker) const {
  const serve::LatencyHistogram& hist =
      *hist_forward_[static_cast<std::size_t>(worker)];
  if (hist.count() < static_cast<std::uint64_t>(options_.hedge_min_samples))
    return options_.hedge_max_ms;
  // Delay = kHedgeFactor x the worker's p99, at least kHedgeMinMs.
  constexpr double kHedgeFactor = 2.0;
  constexpr double kHedgeMinMs = 20.0;
  return std::clamp(kHedgeFactor * hist.quantile_ms(0.99), kHedgeMinMs,
                    options_.hedge_max_ms);
}

serve::Client::Reply Router::forward_hedged(
    int worker, const serve::JobSpec& spec,
    std::chrono::steady_clock::time_point t0) {
  if (!options_.hedge_enabled) return forward_leg(worker, spec, t0);

  struct State {
    std::mutex mu;
    std::condition_variable cv;
    int legs_done = 0;
    bool have_result = false;    ///< some leg produced a kJobResult
    int result_leg = -1;
    std::string winner_norm;     ///< normalized dump of the winning result
    serve::Client::Reply reply[2];
    bool have_reply[2] = {false, false};
    std::exception_ptr err[2];
  };
  auto st = std::make_shared<State>();

  // Legs run detached: the winner's reply must go out while the loser is
  // still in flight.  inflight_legs_ keeps stop() from tearing down the
  // link pools under a straggler; the shared_ptr keeps the state alive.
  auto launch_leg = [this, st, spec, t0](int leg, int target) {
    inflight_legs_.fetch_add(1, std::memory_order_acq_rel);
    std::thread([this, st, spec, t0, leg, target] {
      serve::Client::Reply r;
      std::exception_ptr err;
      try {
        r = forward_leg(target, spec, t0);
      } catch (...) {
        err = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(st->mu);
        if (err != nullptr) {
          st->err[leg] = err;
        } else {
          st->reply[leg] = std::move(r);
          st->have_reply[leg] = true;
          if (st->reply[leg].type == MsgType::kJobResult) {
            const std::string norm =
                serve::normalized_result(st->reply[leg].payload.get("result"))
                    .dump();
            if (!st->have_result) {
              st->have_result = true;
              st->result_leg = leg;
              st->winner_norm = norm;
              if (leg == 1)
                hedges_won_.fetch_add(1, std::memory_order_relaxed);
            } else if (norm != st->winner_norm) {
              // Deterministic, content-addressed jobs make this impossible
              // short of a real bug; the chaos soak asserts it stays zero.
              hedge_mismatches_.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        ++st->legs_done;
      }
      st->cv.notify_all();
      inflight_legs_.fetch_sub(1, std::memory_order_acq_rel);
    }).detach();
  };

  launch_leg(0, worker);
  int legs = 1;
  const double delay_ms = hedge_delay_ms(worker);
  std::unique_lock<std::mutex> lock(st->mu);
  const auto primary_settled = [&] {
    return st->have_result || st->have_reply[0] || st->err[0] != nullptr;
  };
  if (!st->cv.wait_for(lock,
                       std::chrono::microseconds(
                           static_cast<long>(delay_ms * 1000.0)),
                       primary_settled)) {
    // Primary is stalling.  Duplicate to the ring's alternate owner (the
    // primary masked out of the alive set); safe because results are
    // content-addressed and deterministic -- both workers publish
    // bit-identical documents to the shared store.
    std::vector<bool> mask = supervisor_.alive_mask();
    mask[static_cast<std::size_t>(worker)] = false;
    const int alternate = ring_.owner(spec.session_key(), mask);
    if (alternate >= 0 && alternate != worker) {
      hedges_launched_.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      launch_leg(1, alternate);
      lock.lock();
      legs = 2;
      if (options_.verbose)
        std::fprintf(stderr, "[fleet] hedging '%s' %d -> %d after %.0f ms\n",
                     spec.id.c_str(), worker, alternate, delay_ms);
    } else {
      hedges_skipped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // First result wins immediately.  With no result, defer to the primary
  // leg's verdict (kJobRejected/kJobError relay untouched; transport
  // errors replay) exactly as the unhedged path would -- unless only the
  // hedge leg is still running and the primary already failed, in which
  // case a late hedge result can still save the job.
  st->cv.wait(lock, [&] {
    return st->have_result ||
           (st->have_reply[0] || st->err[0] != nullptr) ||
           st->legs_done == legs;
  });
  if (st->have_result) return st->reply[st->result_leg];
  if (st->have_reply[0]) return st->reply[0];
  if (st->err[0] != nullptr) std::rethrow_exception(st->err[0]);
  // Both legs done, no result, primary never reported: hedge leg only.
  if (st->have_reply[1]) return st->reply[1];
  std::rethrow_exception(st->err[1]);
}

void Router::handle_job(const std::shared_ptr<Connection>& conn,
                        const std::string& payload) {
  const auto t0 = std::chrono::steady_clock::now();
  serve::JobSpec spec;
  try {
    spec = serve::JobSpec::from_json(Json::parse(payload));
  } catch (const std::exception& e) {
    jobs_invalid_.fetch_add(1, std::memory_order_relaxed);
    Json err = Json::object();
    err.set("error", Json::string(e.what()));
    reply(conn, static_cast<std::uint32_t>(MsgType::kJobError), err);
    return;
  }
  jobs_accepted_.fetch_add(1, std::memory_order_relaxed);

  const auto shed = [&](double retry_after_ms) {
    jobs_shed_.fetch_add(1, std::memory_order_relaxed);
    Json r = Json::object();
    if (!spec.id.empty()) r.set("id", Json::string(spec.id));
    r.set("retry_after_ms", Json::number(retry_after_ms));
    r.set("router_shed", Json::boolean(true));
    reply(conn, static_cast<std::uint32_t>(MsgType::kJobRejected), r);
  };
  if (stopping_.load(std::memory_order_acquire)) {
    shed(options_.retry_after_ms);
    return;
  }

  const std::uint64_t session_key = spec.session_key();
  std::string last_error = "no worker alive";
  const int max_attempts = std::max(1, options_.forward_max_attempts);
  const auto expire = [&] {
    jobs_expired_.fetch_add(1, std::memory_order_relaxed);
    Json err = Json::object();
    if (!spec.id.empty()) err.set("id", Json::string(spec.id));
    err.set("error", Json::string("deadline exceeded during routing"));
    err.set("expired", Json::boolean(true));
    reply(conn, static_cast<std::uint32_t>(MsgType::kJobError), err);
  };
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (!conn->open.load(std::memory_order_acquire)) return;
    if (spec.deadline_ms > 0.0 &&
        ms_since(t0, std::chrono::steady_clock::now()) > spec.deadline_ms) {
      expire();
      return;
    }
    const int worker = ring_.owner(session_key, supervisor_.alive_mask());
    if (worker >= 0) {
      try {
        jobs_forwarded_.fetch_add(1, std::memory_order_relaxed);
        const serve::Client::Reply r = forward_hedged(worker, spec, t0);
        // Worker verdicts relay untouched: backpressure (retry_after_ms,
        // breaker_open) and errors must reach the client as-is.
        switch (r.type) {
          case MsgType::kJobResult:
            jobs_completed_.fetch_add(1, std::memory_order_relaxed);
            break;
          case MsgType::kJobRejected:
            rejects_relayed_.fetch_add(1, std::memory_order_relaxed);
            break;
          default:
            errors_relayed_.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        // Record before replying: a client that reads its reply and
        // immediately polls metrics must already see this route counted.
        hist_route_.record(ms_since(t0, std::chrono::steady_clock::now()));
        reply(conn, static_cast<std::uint32_t>(r.type), r.payload);
        return;
      } catch (const RouterShed&) {
        shed(options_.retry_after_ms);
        return;
      } catch (const RouterExpired&) {
        expire();
        return;
      } catch (const std::exception& e) {
        // Transport failure: the worker died mid-job, the link tore, or
        // fleet.route_drop fired.  Count it and fall through to the
        // backoff + replay below; the memoized result store makes the
        // replay bit-identical even when the worker had already solved.
        last_error = e.what();
        jobs_replayed_.fetch_add(1, std::memory_order_relaxed);
        if (std::string_view(e.what()).find("[fault:fleet.route_drop]") !=
            std::string_view::npos)
          route_drops_.fetch_add(1, std::memory_order_relaxed);
        if (options_.verbose)
          std::fprintf(stderr, "[fleet] replay '%s' (attempt %d): %s\n",
                       spec.id.c_str(), attempt, e.what());
      }
    }
    // Deterministic backoff, a pure function of (job, attempt): replayed
    // runs schedule identically.  Also rides out the respawn window when
    // no worker currently owns the key.
    constexpr double kForwardBackoffMs = 50.0;
    Rng jitter(spec.job_key() ^ static_cast<std::uint64_t>(attempt));
    const double wait_ms = kForwardBackoffMs * (0.5 + 0.5 * jitter.uniform());
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long>(wait_ms * 1000.0)));
  }
  Json err = Json::object();
  if (!spec.id.empty()) err.set("id", Json::string(spec.id));
  err.set("error", Json::string("fleet: forward attempts exhausted: " +
                                last_error));
  reply(conn, static_cast<std::uint32_t>(MsgType::kJobError), err);
}

void Router::reply(const std::shared_ptr<Connection>& conn,
                   std::uint32_t type, const Json& payload) {
  if (!conn->open.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(conn->write_mu);
  try {
    serve::write_frame(conn->fd, static_cast<MsgType>(type), payload.dump());
  } catch (const std::exception& e) {
    conn->open.store(false, std::memory_order_release);
    ::shutdown(conn->fd, SHUT_RDWR);
    if (options_.verbose)
      std::fprintf(stderr, "[fleet] dropped reply: %s\n", e.what());
  }
}

Json Router::metrics() {
  Json m = Json::object();
  const auto n = [](const std::atomic<std::uint64_t>& a) {
    return Json::number(
        static_cast<double>(a.load(std::memory_order_relaxed)));
  };
  Json router = Json::object();
  router.set("workers", Json::number(supervisor_.workers()));
  router.set("links_per_worker", Json::number(options_.links_per_worker));
  router.set("accepted", n(jobs_accepted_));
  router.set("invalid", n(jobs_invalid_));
  router.set("forwarded", n(jobs_forwarded_));
  router.set("completed", n(jobs_completed_));
  router.set("replayed", n(jobs_replayed_));
  router.set("shed", n(jobs_shed_));
  router.set("rejects_relayed", n(rejects_relayed_));
  router.set("errors_relayed", n(errors_relayed_));
  router.set("route_drops", n(route_drops_));
  router.set("expired", n(jobs_expired_));
  router.set("protocol_errors", n(protocol_errors_));
  router.set("accept_errors", n(accept_errors_));
  router.set("hedge_enabled", Json::boolean(options_.hedge_enabled));
  router.set("hedges_launched", n(hedges_launched_));
  router.set("hedges_won", n(hedges_won_));
  router.set("hedges_skipped", n(hedges_skipped_));
  router.set("hedge_mismatches", n(hedge_mismatches_));
  router.set("stalls_injected", n(stalls_injected_));
  router.set("respawns",
             Json::number(static_cast<double>(supervisor_.total_respawns())));
  router.set("route_latency", hist_route_.to_json());
  router.set("uptime_ms",
             Json::number(ms_since(start_time_,
                                   std::chrono::steady_clock::now())));
  m.set("router", std::move(router));

  // Per-worker telemetry, fetched over short-lived bounded connections so
  // a wedged worker cannot hang the metrics path.
  Json workers = Json::array();
  for (int i = 0; i < supervisor_.workers(); ++i) {
    Json w = Json::object();
    w.set("index", Json::number(i));
    w.set("socket", Json::string(supervisor_.worker_socket(i)));
    w.set("alive", Json::boolean(supervisor_.alive(i)));
    w.set("respawns",
          Json::number(static_cast<double>(supervisor_.respawns(i))));
    w.set("forward_latency",
          hist_forward_[static_cast<std::size_t>(i)]->to_json());
    if (supervisor_.alive(i)) {
      try {
        serve::ClientOptions copts;
        copts.connect_timeout_ms = 500;
        copts.io_timeout_ms = 2000;
        serve::Client probe = serve::Client::connect_unix_path(
            supervisor_.worker_socket(i), copts);
        w.set("metrics", probe.metrics());
      } catch (const std::exception& e) {
        w.set("metrics_error", Json::string(e.what()));
      }
    }
    workers.push_back(std::move(w));
  }
  m.set("workers", std::move(workers));
  return m;
}

}  // namespace doseopt::fleet
