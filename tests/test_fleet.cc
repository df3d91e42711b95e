// Tests for the sharded serving fleet: the consistent hash ring, and --
// the core guarantee -- that results served through router + worker
// processes are bit-identical to direct flow:: calls, even when a worker
// is SIGKILLed mid-job and the supervisor respawns it.  Also covers the
// shared on-disk result store surviving worker death and worker-level
// backpressure propagating through the router untouched.
//
// These tests fork real doseopt_server processes (discovered next to this
// binary or in ../tools), so they exercise the same code path as the
// production `doseopt_fleet` entry point.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "faultinject/fault.h"
#include "fleet/ring.h"
#include "fleet/router.h"
#include "fleet/supervisor.h"
#include "flow/optimize.h"
#include "serve/client.h"
#include "serve/job.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/socket.h"

namespace doseopt {
namespace {

namespace fi = faultinject;
using serve::Json;
using serve::JobSpec;
using serve::MsgType;

// ---------------------------------------------------------------------------
// Consistent hash ring.
// ---------------------------------------------------------------------------

TEST(HashRing, OwnerIsDeterministicAndCoversEveryNode) {
  const fleet::HashRing ring(4);
  std::vector<int> counts(4, 0);
  for (std::uint64_t key = 0; key < 10000; ++key) {
    const int owner = ring.owner(key);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 4);
    EXPECT_EQ(owner, ring.owner(key));  // pure function of the key
    ++counts[static_cast<std::size_t>(owner)];
  }
  // Virtual points keep the split coarse-grained fair: no node starves.
  for (int node = 0; node < 4; ++node)
    EXPECT_GT(counts[static_cast<std::size_t>(node)], 500) << "node " << node;

  // A single-node ring owns everything.
  const fleet::HashRing solo(1);
  for (std::uint64_t key = 0; key < 64; ++key) EXPECT_EQ(solo.owner(key), 0);

  EXPECT_THROW(fleet::HashRing(0), Error);
}

TEST(HashRing, DeadNodeReroutesOnlyTheKeysItOwned) {
  const fleet::HashRing ring(4);
  std::vector<bool> alive(4, true);
  alive[1] = false;
  int moved = 0;
  for (std::uint64_t key = 0; key < 10000; ++key) {
    const int before = ring.owner(key);
    const int after = ring.owner(key, alive);
    ASSERT_GE(after, 0);
    ASSERT_NE(after, 1);
    if (before == 1) {
      ++moved;  // orphaned keys land on some alive node
    } else {
      // Consistency: everyone else keeps their worker (and their caches).
      EXPECT_EQ(after, before) << "key " << key;
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(HashRing, AllDeadYieldsNoOwner) {
  const fleet::HashRing ring(3);
  const std::vector<bool> dead(3, false);
  for (std::uint64_t key = 0; key < 64; ++key)
    EXPECT_EQ(ring.owner(key, dead), -1);
}

// ---------------------------------------------------------------------------
// Fleet end-to-end helpers.
// ---------------------------------------------------------------------------

/// Zero out wall-clock fields, which legitimately differ between runs;
/// everything else compares bit-exact.  (Mirrors test_serve.cc.)
Json normalized(const Json& result) {
  Json r = result;
  Json dm = r.get("dmopt");
  dm.set("runtime_s", Json::number(0.0));
  dm.set("solver_ms", Json::number(0.0));
  r.set("dmopt", std::move(dm));
  if (r.has("dosepl")) {
    Json dp = r.get("dosepl");
    dp.set("runtime_s", Json::number(0.0));
    r.set("dosepl", std::move(dp));
  }
  r.set("stage_s", Json::number(0.0));
  return r;
}

/// Fresh per-test directory for worker sockets, snapshots, and the shared
/// result store.
std::string fleet_dir(const char* tag) {
  const std::string dir = "/tmp/doseopt_test_fleet_" + std::string(tag) +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The mixed job set (mirrors test_serve.cc): two sessions, both DMopt
/// modes, and a dosePl job that mutates worker placement state.
std::vector<JobSpec> mixed_jobs() {
  JobSpec timing;
  timing.id = "timing";
  timing.design = "aes65";
  timing.scale = 0.025;
  timing.grid_um = 10.0;

  JobSpec leakage = timing;
  leakage.id = "leakage";
  leakage.mode = "leakage";

  JobSpec dosepl = timing;
  dosepl.id = "dosepl";
  dosepl.run_dosepl = true;

  JobSpec other = timing;
  other.id = "other";
  other.design = "jpeg65";
  other.scale = 0.02;
  return {timing, leakage, dosepl, other};
}

/// Same session as the timing job, different solver grid: warm context,
/// cold result.
JobSpec grid_variant(double grid_um) {
  JobSpec v = mixed_jobs()[0];
  v.id = "timing-g" + std::to_string(static_cast<int>(grid_um));
  v.grid_um = grid_um;
  return v;
}

/// Direct flow:: reference results, computed once under SuspendScope so an
/// environment-armed fault (the CI fleet fault sweep) is not consumed --
/// or fired -- inside the reference itself.
const std::map<std::string, std::string>& reference_results() {
  static const std::map<std::string, std::string> refs = [] {
    fi::SuspendScope fault_free;
    std::map<std::string, std::string> out;
    std::map<std::uint64_t, std::unique_ptr<flow::DesignContext>> contexts;
    std::vector<JobSpec> specs = mixed_jobs();
    for (const double grid : {14.0, 20.0, 22.0, 24.0, 26.0})
      specs.push_back(grid_variant(grid));
    for (const JobSpec& spec : specs) {
      auto& ctx = contexts[spec.session_key()];
      if (!ctx)
        ctx = std::make_unique<flow::DesignContext>(spec.design_spec());
      const flow::FlowResult r = flow::run_flow(*ctx, spec.flow_options());
      out[spec.id] = normalized(serve::flow_result_to_json(r)).dump();
      if (spec.run_dosepl) {
        // dosePl mutated the context; drop it so later jobs on the same
        // session start pristine (mirrors the worker's restore).
        contexts.erase(spec.session_key());
      }
    }
    return out;
  }();
  return refs;
}

bool poll_until(const std::function<bool()>& pred, double timeout_ms) {
  const auto t0 = std::chrono::steady_clock::now();
  while (!pred()) {
    const double elapsed =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (elapsed > timeout_ms) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Router + worker processes serve bit-identical results.
// ---------------------------------------------------------------------------

TEST(FleetE2E, RoutedMixedJobsBitIdenticalWithMemoizedRepeats) {
  const auto& refs = reference_results();
  const std::string dir = fleet_dir("e2e");

  fleet::SupervisorOptions sup;
  sup.runtime_dir = dir;
  sup.snapshot_dir = dir + "/snapshots";
  sup.result_store_dir = dir + "/results";
  sup.workers = 2;
  sup.lanes = 2;
  fleet::Supervisor supervisor(sup);
  supervisor.start();

  fleet::RouterOptions route;
  route.uds_path = dir + "/router.sock";
  fleet::Router router(route, supervisor);
  router.start();

  // Pass 0 is cold; pass 1 repeats every job (memoized on the session's
  // worker) and adds a parameter-sweep variant that must re-solve.
  std::size_t total_jobs = 0;
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<JobSpec> jobs = mixed_jobs();
    if (pass == 1) jobs.push_back(grid_variant(14.0));
    total_jobs += jobs.size();
    std::vector<std::string> replies(jobs.size());
    std::vector<std::thread> threads;
    threads.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      threads.emplace_back([&, i] {
        serve::Client client =
            serve::Client::connect_unix_path(route.uds_path);
        const serve::Client::Reply reply = client.submit(jobs[i]);
        ASSERT_TRUE(reply.ok())
            << "job=" << jobs[i].id << ": " << reply.payload.dump();
        replies[i] = normalized(reply.payload.get("result")).dump();
        if (pass == 1) {
          const Json& cache = reply.payload.get("cache");
          EXPECT_TRUE(cache.get_bool("context_hit", false)) << jobs[i].id;
          EXPECT_EQ(cache.get_bool("result_hit", true),
                    jobs[i].id != "timing-g14")
              << jobs[i].id;
        }
      });
    }
    for (auto& t : threads) t.join();
    for (std::size_t i = 0; i < jobs.size(); ++i)
      EXPECT_EQ(replies[i], refs.at(jobs[i].id))
          << "pass=" << pass << " job=" << jobs[i].id;
  }

  // The router aggregates its own counters plus per-worker telemetry.
  const Json m = router.metrics();
  const Json& r = m.get("router");
  EXPECT_EQ(r.get_number("accepted", -1.0),
            static_cast<double>(total_jobs));
  EXPECT_EQ(r.get_number("completed", -1.0),
            static_cast<double>(total_jobs));
  EXPECT_EQ(r.get_number("shed", -1.0), 0.0);
  EXPECT_EQ(r.get_number("respawns", -1.0), 0.0);
  EXPECT_EQ(r.get("route_latency").get_number("count", -1.0),
            static_cast<double>(total_jobs));
  const auto& workers = m.get("workers").items();
  ASSERT_EQ(workers.size(), 2u);
  double memo_hits = 0.0;
  for (const Json& w : workers) {
    EXPECT_TRUE(w.get_bool("alive", false)) << w.dump();
    ASSERT_TRUE(w.has("metrics")) << w.dump();
    EXPECT_TRUE(w.get("metrics").has("latency_histograms")) << w.dump();
    memo_hits += w.get("metrics").get("cache").get_number("result_hits", 0.0);
  }
  // The pass-1 repeats answered from the memo on each session's worker.
  EXPECT_EQ(memo_hits, 4.0);

  router.stop();
  supervisor.stop();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Worker SIGKILL mid-job: respawn + replay, still bit-identical.
// ---------------------------------------------------------------------------

TEST(FleetE2E, WorkerCrashMidJobIsReplayedBitIdentical) {
  const auto& refs = reference_results();
  const std::string dir = fleet_dir("crash");

  fleet::SupervisorOptions sup;
  sup.runtime_dir = dir;
  sup.snapshot_dir = dir + "/snapshots";
  sup.result_store_dir = dir + "/results";
  sup.workers = 1;
  sup.lanes = 1;
  // Arm the mid-job crash in the worker only: the fault fires after the
  // session is built but before the client has an answer, and the
  // supervisor strips it from the respawned replacement so the fleet
  // cannot crash-loop.
  sup.crash_faults = true;
  sup.worker_faults = "fleet.worker_crash:once";
  fleet::Supervisor supervisor(sup);
  supervisor.start();

  fleet::RouterOptions route;
  route.uds_path = dir + "/router.sock";
  route.forward_max_attempts = 200;  // rides out the respawn window
  fleet::Router router(route, supervisor);
  router.start();

  serve::Client client = serve::Client::connect_unix_path(route.uds_path);
  const serve::Client::Reply reply = client.submit(mixed_jobs()[0]);
  ASSERT_TRUE(reply.ok()) << reply.payload.dump();
  EXPECT_EQ(normalized(reply.payload.get("result")).dump(),
            refs.at("timing"));
  // The kill really happened and was really recovered.
  EXPECT_GE(supervisor.total_respawns(), 1u);
  const Json m = router.metrics();
  EXPECT_GE(m.get("router").get_number("replayed", 0.0), 1.0);

  router.stop();
  supervisor.stop();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Shared result store outlives the worker that computed the result.
// ---------------------------------------------------------------------------

TEST(FleetE2E, SharedResultStoreSurvivesWorkerDeath) {
  const auto& refs = reference_results();
  const std::string dir = fleet_dir("store");

  fleet::SupervisorOptions sup;
  sup.runtime_dir = dir;
  sup.snapshot_dir = dir + "/snapshots";
  sup.result_store_dir = dir + "/results";
  sup.workers = 1;
  sup.lanes = 1;
  fleet::Supervisor supervisor(sup);
  supervisor.start();

  fleet::RouterOptions route;
  route.uds_path = dir + "/router.sock";
  fleet::Router router(route, supervisor);
  router.start();

  serve::Client client = serve::Client::connect_unix_path(route.uds_path);
  const JobSpec spec = mixed_jobs()[0];
  const serve::Client::Reply first = client.submit(spec);
  ASSERT_TRUE(first.ok()) << first.payload.dump();
  const std::string first_result =
      normalized(first.payload.get("result")).dump();
  EXPECT_EQ(first_result, refs.at("timing"));
  // The cold solve published its record to the shared on-disk store.
  int records = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/results"))
    if (entry.path().filename().string().ends_with(".res")) ++records;
  EXPECT_EQ(records, 1);

  // Hard-kill the worker that computed it; the monitor respawns.
  supervisor.kill_worker(0);
  ASSERT_TRUE(poll_until(
      [&] { return supervisor.alive(0) && supervisor.respawns(0) >= 1; },
      30000.0));

  // The respawned process (empty in-memory caches) answers the repeat as a
  // disk hit with the bit-identical document.
  const serve::Client::Reply second = client.submit(spec);
  ASSERT_TRUE(second.ok()) << second.payload.dump();
  EXPECT_TRUE(second.payload.get("cache").get_bool("result_hit", false))
      << second.payload.dump();
  EXPECT_EQ(normalized(second.payload.get("result")).dump(), first_result);

  const Json m = router.metrics();
  const auto& workers = m.get("workers").items();
  ASSERT_EQ(workers.size(), 1u);
  EXPECT_EQ(workers[0].get_number("respawns", 0.0), 1.0);
  ASSERT_TRUE(workers[0].has("metrics")) << workers[0].dump();
  EXPECT_EQ(workers[0].get("metrics").get("cache").get_number(
                "result_disk_hits", -1.0),
            1.0);

  router.stop();
  supervisor.stop();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Worker backpressure propagates through the router untouched.
// ---------------------------------------------------------------------------

TEST(FleetE2E, WorkerBackpressureRelaysThroughRouterUntouched) {
  const auto& refs = reference_results();
  const std::string dir = fleet_dir("pressure");

  fleet::SupervisorOptions sup;
  sup.runtime_dir = dir;
  sup.snapshot_dir = dir + "/snapshots";
  sup.result_store_dir = dir + "/results";
  sup.workers = 1;
  sup.lanes = 1;
  sup.queue_capacity = 1;  // 1 running + 1 queued; the rest are rejected
  fleet::Supervisor supervisor(sup);
  supervisor.start();

  fleet::RouterOptions route;
  route.uds_path = dir + "/router.sock";
  route.links_per_worker = 6;  // the router itself never saturates here
  fleet::Router router(route, supervisor);
  router.start();

  // Four distinct parameter-sweep jobs on one session: the first cold
  // build keeps the single lane busy for seconds, so at most two of the
  // concurrent submissions are admitted and the rest bounce with the
  // worker's retry hint.
  const std::vector<JobSpec> jobs = {grid_variant(20.0), grid_variant(22.0),
                                     grid_variant(24.0), grid_variant(26.0)};
  std::atomic<int> rejected{0};
  std::vector<std::thread> threads;
  threads.reserve(jobs.size());
  for (const JobSpec& spec : jobs) {
    threads.emplace_back([&, spec] {
      serve::Client client =
          serve::Client::connect_unix_path(route.uds_path);
      const serve::Client::Reply probe = client.submit(spec);
      if (probe.type == MsgType::kJobRejected) {
        rejected.fetch_add(1, std::memory_order_relaxed);
        // This is the WORKER's verdict relayed as-is, not a router shed.
        EXPECT_FALSE(probe.payload.get_bool("router_shed", false))
            << probe.payload.dump();
        EXPECT_GT(probe.payload.get_number("retry_after_ms", 0.0), 0.0)
            << probe.payload.dump();
      }
      // Under pressure or not, the job eventually lands bit-identically.
      serve::RetryPolicy policy;
      policy.max_attempts = 100;
      const serve::Client::Reply reply =
          probe.ok() ? probe : client.submit_with_retry(spec, policy);
      ASSERT_TRUE(reply.ok()) << spec.id << ": " << reply.payload.dump();
      EXPECT_EQ(normalized(reply.payload.get("result")).dump(),
                refs.at(spec.id))
          << spec.id;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(rejected.load(), 1);

  const Json m = router.metrics();
  EXPECT_GE(m.get("router").get_number("rejects_relayed", 0.0), 1.0);
  EXPECT_EQ(m.get("router").get_number("shed", -1.0), 0.0);

  router.stop();
  supervisor.stop();
  std::filesystem::remove_all(dir);
}

TEST(FleetE2E, MalformedRequestAnswersJobError) {
  const std::string dir = fleet_dir("badreq");

  fleet::SupervisorOptions sup;
  sup.runtime_dir = dir;
  sup.workers = 1;
  sup.lanes = 1;
  fleet::Supervisor supervisor(sup);
  supervisor.start();

  fleet::RouterOptions route;
  route.uds_path = dir + "/router.sock";
  fleet::Router router(route, supervisor);
  router.start();

  // Both frames fail in the router itself: one does not validate, the
  // other does not parse.  Neither is forwarded.
  const int fd = serve::connect_unix(route.uds_path);
  serve::write_frame(fd, MsgType::kJobRequest, "{\"scale\": -3}");
  serve::Frame frame;
  ASSERT_TRUE(serve::read_frame(fd, &frame));
  EXPECT_EQ(frame.type, MsgType::kJobError);
  serve::write_frame(fd, MsgType::kJobRequest, "not json at all");
  ASSERT_TRUE(serve::read_frame(fd, &frame));
  EXPECT_EQ(frame.type, MsgType::kJobError);
  const Json r = router.metrics().get("router");
  EXPECT_EQ(r.get_number("invalid", -1.0), 2.0);
  EXPECT_EQ(r.get_number("accepted", -1.0), 0.0);
  EXPECT_EQ(r.get_number("forwarded", -1.0), 0.0);
  serve::close_socket(fd);

  router.stop();
  supervisor.stop();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Hedged requests: a stalled worker is raced by a duplicate leg.
// ---------------------------------------------------------------------------

TEST(FleetE2E, HedgeRescuesStalledWorkerBitIdentical) {
  const auto& refs = reference_results();
  const std::string dir = fleet_dir("hedge");

  fleet::SupervisorOptions sup;
  sup.runtime_dir = dir;
  sup.snapshot_dir = dir + "/snapshots";
  sup.result_store_dir = dir + "/results";
  sup.workers = 2;
  sup.lanes = 1;
  fleet::Supervisor supervisor(sup);
  supervisor.start();

  fleet::RouterOptions route;
  route.uds_path = dir + "/router.sock";
  route.hedge_enabled = true;
  route.hedge_max_ms = 200.0;  // below min_samples the delay IS the ceiling
  route.stall_inject_ms = 1500.0;
  fleet::Router router(route, supervisor);
  router.start();

  serve::Client client = serve::Client::connect_unix_path(route.uds_path);
  const JobSpec spec = mixed_jobs()[0];
  // Cold solve first: publishes the result to the shared store, so BOTH
  // workers can answer the repeat (the hedge target reads it from disk).
  ASSERT_TRUE(client.submit(spec).ok());

  serve::Client::Reply reply;
  double elapsed_ms = 0.0;
  {
    // The stall fires on the repeat's primary leg and wedges it for
    // 1500 ms; the hedge launches after <= 200 ms and must win long
    // before the primary recovers.
    fi::ArmScope stall("fleet.worker_stall", "once");
    const auto t0 = std::chrono::steady_clock::now();
    reply = client.submit(spec);
    elapsed_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  }
  ASSERT_TRUE(reply.ok()) << reply.payload.dump();
  EXPECT_EQ(normalized(reply.payload.get("result")).dump(),
            refs.at("timing"));
  EXPECT_LT(elapsed_ms, 1200.0);  // the stalled leg never gated the reply

  // Let the stalled loser land so its result is bit-compared against the
  // winner's (the mismatch counter must stay zero).
  std::this_thread::sleep_for(std::chrono::milliseconds(1700));
  const Json r = router.metrics().get("router");
  EXPECT_TRUE(r.get_bool("hedge_enabled", false));
  EXPECT_EQ(r.get_number("stalls_injected", -1.0), 1.0);
  EXPECT_GE(r.get_number("hedges_launched", 0.0), 1.0);
  EXPECT_GE(r.get_number("hedges_won", 0.0), 1.0);
  EXPECT_EQ(r.get_number("hedge_mismatches", -1.0), 0.0);

  router.stop();
  supervisor.stop();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Deadline budget: each forward leg gets the REMAINING budget, so a stall
// that eats the whole deadline expires the job instead of re-spending it.
// ---------------------------------------------------------------------------

TEST(FleetE2E, StallPastDeadlineExpiresInsteadOfRespending) {
  const std::string dir = fleet_dir("deadline");

  fleet::SupervisorOptions sup;
  sup.runtime_dir = dir;
  sup.snapshot_dir = dir + "/snapshots";
  sup.result_store_dir = dir + "/results";
  sup.workers = 1;
  sup.lanes = 1;
  fleet::Supervisor supervisor(sup);
  supervisor.start();

  fleet::RouterOptions route;
  route.uds_path = dir + "/router.sock";
  route.stall_inject_ms = 1000.0;
  fleet::Router router(route, supervisor);
  router.start();

  serve::Client client = serve::Client::connect_unix_path(route.uds_path);
  JobSpec spec = mixed_jobs()[0];
  // Memoize first so the healthy round trip is far under the deadline.
  ASSERT_TRUE(client.submit(spec).ok());

  spec.deadline_ms = 800.0;
  {
    // The 1000 ms stall exhausts the 800 ms budget before the forward: the
    // leg must see remaining <= 0 and expire the job rather than submit
    // with the original (already-spent) deadline.
    fi::ArmScope stall("fleet.worker_stall", "once");
    const serve::Client::Reply reply = client.submit(spec);
    EXPECT_EQ(reply.type, MsgType::kJobError) << reply.payload.dump();
    EXPECT_TRUE(reply.payload.get_bool("expired", false))
        << reply.payload.dump();
  }
  EXPECT_EQ(router.metrics().get("router").get_number("expired", -1.0), 1.0);

  // With the stall disarmed the same deadline is generous: the memoized
  // job lands instantly.
  const serve::Client::Reply ok_reply = client.submit(spec);
  ASSERT_TRUE(ok_reply.ok()) << ok_reply.payload.dump();

  router.stop();
  supervisor.stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace doseopt
