// End-to-end tests of the self-healing serve/solve stack under
// deterministic fault injection.
//
// The core claim: a single injected fault at ANY registered point is
// absorbed by a recovery ladder (client reconnect+retry, server job retry,
// QP cold re-solve, QCP->QP fallback, snapshot quarantine + cold rebuild),
// and the golden results the client ends up with are bit-identical to the
// fault-free run.  The CI fault sweep re-runs this binary once per point
// with DOSEOPT_FAULTS=<point>:once; the FaultSweep test below is the
// designated consumer of the environment-armed fault, so it is defined
// first.
//
// Client and server share this process, so a socket fault fires on
// whichever side reaches the point first -- the tests only assert the
// recovered outcome, which must be identical either way.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "faultinject/fault.h"
#include "fleet/router.h"
#include "flow/context.h"
#include "flow/optimize.h"
#include "serde/snapshot.h"
#include "variation/yield.h"
#include "serve/client.h"
#include "serve/job.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"

namespace doseopt {
namespace {

namespace fi = faultinject;
using serve::Json;
using serve::JobSpec;
using serve::MsgType;

/// Every fault point compiled into the stack, sorted.  The CI fault-sweep
/// job iterates exactly this list; RegisteredPointsMatchTheSweepManifest
/// keeps the two in sync.
const std::vector<std::string>& sweep_manifest() {
  static const std::vector<std::string> names = {
      "campaign.journal_torn",
      "dmopt.qcp_infeasible",
      "fleet.cache_corrupt",
      "fleet.route_drop",
      "fleet.worker_crash",
      "fleet.worker_stall",
      "qp.admm_diverge",
      "qp.kkt_reject",
      "serde.snapshot_read",
      "serde.snapshot_write",
      "serve.accept",
      "serve.frame",
      "serve.job",
      "serve.read",
      "serve.write",
      "ssta.nan",
      "sta.batch_nan",
  };
  return names;
}

/// Zero out wall-clock fields, which legitimately differ between runs;
/// everything else -- including the recovery telemetry -- compares
/// bit-exact.  (Mirrors test_serve.cc.)
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

/// Projection onto the fields every recovery ladder preserves bit-exactly:
/// golden/model signoff metrics and the dose maps.  Solver telemetry
/// (iteration counters, recovery flags) legitimately differs when a ladder
/// re-solved.
Json core(const Json& result) {
  Json c = Json::object();
  for (const char* k : {"nominal_mct_ns", "nominal_leakage_uw",
                        "final_mct_ns", "final_leakage_uw"})
    c.set(k, result.get(k));
  const Json& dm = result.get("dmopt");
  Json d = Json::object();
  for (const char* k : {"golden_mct_ns", "golden_leakage_uw", "model_mct_ns",
                        "model_delta_leakage_uw", "poly_map"})
    d.set(k, dm.get(k));
  if (dm.has("active_map")) d.set("active_map", dm.get("active_map"));
  c.set("dmopt", std::move(d));
  return c;
}

std::string uds_path(const char* tag) {
  return "/tmp/doseopt_test_faults_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

JobSpec cheap_timing_job() {
  JobSpec j;
  j.id = "timing";
  j.design = "aes65";
  j.scale = 0.025;
  j.grid_um = 10.0;
  return j;
}

JobSpec cheap_leakage_job() {
  JobSpec j = cheap_timing_job();
  j.id = "leakage";
  j.mode = "leakage";
  return j;
}

JobSpec cheap_ssta_job() {
  JobSpec j = cheap_timing_job();
  j.id = "ssta";
  j.mode = "ssta_yield";
  // A nonzero MC leg pins the sample count, so the clean run and the
  // ssta.nan-degraded run share one deterministic Monte-Carlo view.
  j.mc_samples = 200;
  return j;
}

/// A schedule that rides out every injected single fault quickly: job
/// errors (server-side injections) are retried too.
serve::RetryPolicy robust_policy() {
  serve::RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_ms = 5.0;
  policy.max_ms = 250.0;
  policy.retry_on_job_error = true;
  return policy;
}

/// Fault-free reference results from direct flow:: calls, computed once
/// under SuspendScope so an environment-armed fault is not consumed by the
/// reference itself.
struct Reference {
  std::string full;  ///< normalized full result JSON
  std::string core;  ///< core() projection
};
const std::map<std::string, Reference>& references() {
  static const std::map<std::string, Reference> refs = [] {
    fi::SuspendScope fault_free;
    std::map<std::string, Reference> out;
    // All jobs share one session context, mirroring the server's cache.
    flow::DesignContext ctx(cheap_timing_job().design_spec());
    for (const JobSpec& spec : {cheap_timing_job(), cheap_leakage_job()}) {
      const flow::FlowResult r = flow::run_flow(ctx, spec.flow_options());
      const Json j = serve::flow_result_to_json(r);
      out[spec.id] = Reference{normalized(j).dump(), core(j).dump()};
    }
    // ssta_yield reference: `full` is the entire deterministic document;
    // `core` is the Monte-Carlo view, which an ssta.nan-degraded run must
    // still reproduce bit-exactly (same samples, untouched by the fault).
    const Json sj = serve::ssta_yield_result_to_json(
        flow::run_ssta_yield(ctx, cheap_ssta_job().ssta_options()));
    out["ssta"] = Reference{sj.dump(), sj.get("mc").dump()};
    return out;
  }();
  return refs;
}

// ---------------------------------------------------------------------------
// The sweep consumer: must pass with DOSEOPT_FAULTS=<any point>:once.
// ---------------------------------------------------------------------------

TEST(FaultSweep, AnySingleInjectedFaultRecoversBitIdentical) {
  // This flow touches every registered in-process point: accept/read/
  // write/frame/job on the wire, the QP and QCP ladders inside the solve,
  // the snapshot write at drain, and the result-store / snapshot reads at
  // the warm restart (an armed fleet.cache_corrupt fires at the disk memo
  // read and is absorbed by quarantine + re-solve).  fleet.route_drop,
  // fleet.worker_crash, and fleet.worker_stall belong to the multi-process
  // fleet -- the sweep runs test_fleet for those; worker_crash is
  // additionally gated behind --crash-faults so it cannot fire in these
  // in-process servers.  campaign.journal_torn fires inside the campaign
  // journal writer (the sweep runs test_campaign for it).  With no
  // environment (the tier-1 run) the same flow must produce the reference
  // results with clean recovery telemetry.
  const auto& refs = references();
  const std::string dir =
      "/tmp/doseopt_test_faultsweep_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  const auto check = [&](const Json& result, const std::string& ref_id) {
    const Json recovery = result.get("dmopt").get("recovery");
    if (recovery.get_bool("degraded", false)) {
      // The QCP ladder fell back to the leakage QP: golden results are
      // bit-identical to a leakage-mode run.
      EXPECT_EQ(recovery.get("fallback").as_string(), "qcp_to_qp");
      EXPECT_EQ(core(result).dump(), refs.at("leakage").core);
      return;
    }
    // The fault-free path (and every transport ladder) reproduces the
    // reference document bit-exactly, recovery telemetry included.
    if (normalized(result).dump() == refs.at(ref_id).full) return;
    // Telemetry differs from the fault-free reference: the solver ladder
    // must have absorbed the injected fault -- a warm solve re-solved
    // cold, which preserves the core results bit-exactly.
    EXPECT_GT(recovery.get_number("qp_cold_fallbacks", 0.0), 0.0)
        << normalized(result).dump();
    EXPECT_EQ(core(result).dump(), refs.at(ref_id).core);
  };

  serve::ServerOptions options;
  options.lanes = 1;
  options.snapshot_dir = dir;
  // Shared result store: the first server publishes its solved document,
  // the second reads it back from disk -- which is where an env-armed
  // fleet.cache_corrupt fires (quarantine + deterministic re-solve).
  options.result_store_dir = dir + "/results";
  options.job_max_attempts = 3;
  {
    options.uds_path = uds_path("sweep1");
    serve::Server server(options);
    server.start();
    serve::Client client =
        serve::Client::connect_unix_path(options.uds_path);
    const serve::Client::Reply reply =
        client.submit_with_retry(cheap_timing_job(), robust_policy());
    ASSERT_TRUE(reply.ok()) << reply.payload.dump();
    check(reply.payload.get("result"), "timing");

    // An ssta_yield job on the same session: an env-armed ssta.nan fires
    // inside the canonical-form propagation and must degrade to the
    // golden Monte-Carlo answer; any other (or no) armed point leaves the
    // document bit-identical to the fault-free reference.
    const serve::Client::Reply sreply =
        client.submit_with_retry(cheap_ssta_job(), robust_policy());
    ASSERT_TRUE(sreply.ok()) << sreply.payload.dump();
    const Json sres = sreply.payload.get("result");
    if (sres.get("recovery").get_bool("degraded", false)) {
      EXPECT_EQ(sres.get("recovery").get("fallback").as_string(),
                "ssta_to_mc");
      EXPECT_EQ(sres.get("mc").dump(), refs.at("ssta").core);
    } else {
      EXPECT_EQ(sres.dump(), refs.at("ssta").full);
    }
    server.stop();  // persists the session snapshot (serde.snapshot_write)
  }
  {
    options.uds_path = uds_path("sweep2");
    serve::Server server(options);
    server.start();
    serve::Client client =
        serve::Client::connect_unix_path(options.uds_path);
    // Warm restart (serde.snapshot_read): restored, or quarantined and
    // rebuilt cold -- bit-identical either way.
    const serve::Client::Reply reply =
        client.submit_with_retry(cheap_timing_job(), robust_policy());
    ASSERT_TRUE(reply.ok()) << reply.payload.dump();
    check(reply.payload.get("result"), "timing");
    server.stop();
  }
  std::filesystem::remove_all(dir);
}

TEST(FaultRegistry, RegisteredPointsMatchTheSweepManifest) {
  // The fleet points live in static-library members this binary never
  // calls into; anchor them so the linker keeps their registrations.
  fleet::ensure_fleet_fault_points_linked();
  std::vector<std::string> names;
  for (const fi::FaultPoint* p : fi::registry()) names.push_back(p->name());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, sweep_manifest());
}

// ---------------------------------------------------------------------------
// Per-ladder tests (programmatic arming; also run inside the env sweep,
// after FaultSweep consumed the once-armed point).
// ---------------------------------------------------------------------------

TEST(FaultRecovery, TransportFaultsRecoverToFullBitIdenticalResults) {
  const auto& refs = references();
  for (const char* point : {"serve.accept", "serve.read", "serve.write",
                            "serve.frame", "serve.job"}) {
    serve::ServerOptions options;
    options.uds_path = uds_path("transport");
    options.lanes = 1;
    serve::Server server(options);
    server.start();
    serve::Client::Reply reply;
    {
      fi::ArmScope fault(point, "once");
      serve::Client client =
          serve::Client::connect_unix_path(options.uds_path);
      reply = client.submit_with_retry(cheap_timing_job(), robust_policy());
    }
    ASSERT_TRUE(reply.ok()) << point << ": " << reply.payload.dump();
    const Json result = reply.payload.get("result");
    // Transport ladders never touch the solve: the full result (including
    // solver telemetry and clean recovery flags) is bit-identical.
    EXPECT_EQ(normalized(result).dump(), refs.at("timing").full) << point;
    const Json recovery = result.get("dmopt").get("recovery");
    EXPECT_FALSE(recovery.get_bool("degraded", true)) << point;
    EXPECT_EQ(recovery.get_number("qp_cold_fallbacks", -1.0), 0.0) << point;
    server.stop();
  }
}

TEST(FaultRecovery, QpSolverFaultsFallBackColdBitIdentical) {
  const auto& refs = references();
  for (const char* point : {"qp.admm_diverge", "qp.kkt_reject"}) {
    serve::ServerOptions options;
    options.uds_path = uds_path("qp");
    options.lanes = 1;
    serve::Server server(options);
    server.start();
    serve::Client client = serve::Client::connect_unix_path(options.uds_path);
    serve::Client::Reply reply;
    {
      fi::ArmScope fault(point, "once");
      reply = client.submit_with_retry(cheap_timing_job(), robust_policy());
    }
    ASSERT_TRUE(reply.ok()) << point << ": " << reply.payload.dump();
    const Json result = reply.payload.get("result");
    const Json recovery = result.get("dmopt").get("recovery");
    EXPECT_FALSE(recovery.get_bool("degraded", true)) << point;
    EXPECT_EQ(recovery.get_number("qp_cold_fallbacks", 0.0), 1.0) << point;
    EXPECT_EQ(core(result).dump(), refs.at("timing").core) << point;
    server.stop();
  }
}

TEST(FaultRecovery, InfeasibleQcpFallsBackToLeakageQpWithSlack) {
  const auto& refs = references();
  serve::ServerOptions options;
  options.uds_path = uds_path("qcp");
  options.lanes = 1;
  serve::Server server(options);
  server.start();
  serve::Client client = serve::Client::connect_unix_path(options.uds_path);
  serve::Client::Reply reply;
  {
    fi::ArmScope fault("dmopt.qcp_infeasible", "once");
    reply = client.submit_with_retry(cheap_timing_job(), robust_policy());
  }
  ASSERT_TRUE(reply.ok()) << reply.payload.dump();
  const Json result = reply.payload.get("result");
  const Json recovery = result.get("dmopt").get("recovery");
  EXPECT_TRUE(recovery.get_bool("degraded", false));
  EXPECT_EQ(recovery.get_string("fallback", ""), "qcp_to_qp");
  EXPECT_TRUE(recovery.has("leakage_slack_uw"));
  // The fallback IS the leakage QP: bit-identical to a leakage-mode run.
  EXPECT_EQ(core(result).dump(), refs.at("leakage").core);

  // The non-degraded leakage path through the same server stays pristine.
  const serve::Client::Reply leak =
      client.submit_with_retry(cheap_leakage_job(), robust_policy());
  ASSERT_TRUE(leak.ok()) << leak.payload.dump();
  EXPECT_EQ(normalized(leak.payload.get("result")).dump(),
            refs.at("leakage").full);
  server.stop();
}

TEST(FaultRecovery, PoisonedBatchLaneIsDetectedAndRetimedScalarBitIdentical) {
  // `sta.batch_nan` poisons one lane of a batched-STA traversal with NaN.
  // The engine's checksum validation must flag the lane (max/min reductions
  // silently drop NaN, so the headline numbers alone would look plausible),
  // and the Monte-Carlo driver must re-time the affected die through the
  // scalar path -- landing dies bit-identical to the fault-free run, with
  // the recovery recorded in scalar_fallback_dies.
  flow::DesignContext ctx(cheap_timing_job().design_spec());
  variation::VariationModel model;
  model.monte_carlo_samples = 10;
  variation::YieldAnalyzer analyzer(&ctx.netlist(), &ctx.placement(),
                                    &ctx.repo(), &ctx.timer(), model);
  const sta::VariantAssignment base(ctx.netlist().cell_count());

  variation::YieldResult ref;
  {
    fi::SuspendScope fault_free;
    ref = analyzer.analyze(base);
  }
  EXPECT_EQ(ref.scalar_fallback_dies, 0);

  variation::YieldResult faulted;
  {
    fi::ArmScope fault("sta.batch_nan", "once");
    faulted = analyzer.analyze(base);
  }
  EXPECT_EQ(faulted.scalar_fallback_dies, 1);
  ASSERT_EQ(faulted.dies.size(), ref.dies.size());
  for (std::size_t i = 0; i < ref.dies.size(); ++i) {
    EXPECT_EQ(faulted.dies[i].mct_ns, ref.dies[i].mct_ns) << "die " << i;
    EXPECT_EQ(faulted.dies[i].leakage_uw, ref.dies[i].leakage_uw)
        << "die " << i;
  }
  EXPECT_EQ(faulted.mean_mct_ns, ref.mean_mct_ns);
  EXPECT_EQ(faulted.p95_mct_ns, ref.p95_mct_ns);
}

TEST(FaultRecovery, PoisonedSstaFormsFallBackToMonteCarloYield) {
  // `ssta.nan` poisons the propagated MCT form with NaN after the endpoint
  // scan.  run_ssta_yield must notice the unhealthy result and answer with
  // the golden Monte-Carlo yield instead, recording the fallback -- and
  // the MC view must be bit-identical to the fault-free run's, because the
  // sampler never touches the poisoned forms.
  flow::DesignContext ctx(cheap_timing_job().design_spec());
  const flow::SstaYieldOptions options = cheap_ssta_job().ssta_options();

  flow::SstaYieldResult ref;
  {
    fi::SuspendScope fault_free;
    ref = flow::run_ssta_yield(ctx, options);
  }
  EXPECT_FALSE(ref.degraded);
  EXPECT_EQ(ref.ssta_traversals, 2);

  flow::SstaYieldResult faulted;
  {
    fi::ArmScope fault("ssta.nan", "once");
    faulted = flow::run_ssta_yield(ctx, options);
  }
  EXPECT_TRUE(faulted.degraded);
  EXPECT_EQ(faulted.fallback, "ssta_to_mc");
  EXPECT_EQ(faulted.ssta_traversals, 0);
  EXPECT_EQ(faulted.tau_ns, ref.tau_ns);
  EXPECT_EQ(faulted.mc_yield, ref.mc_yield);
  EXPECT_EQ(faulted.mc_mean_mct_ns, ref.mc_mean_mct_ns);
  EXPECT_EQ(faulted.mc_std_mct_ns, ref.mc_std_mct_ns);
  // The degraded analytic view is the MC view verbatim.
  EXPECT_EQ(faulted.ssta_yield, faulted.mc_yield);
}

TEST(FaultRecovery, CircuitBreakerShedsThenRecovers) {
  const auto& refs = references();
  serve::ServerOptions options;
  options.uds_path = uds_path("breaker");
  options.lanes = 1;
  options.job_max_attempts = 1;  // every injected failure exhausts its job
  options.breaker_threshold = 2;
  options.breaker_cooldown_ms = 400.0;
  options.retry_after_ms = 50.0;
  serve::Server server(options);
  server.start();
  serve::Client client = serve::Client::connect_unix_path(options.uds_path);

  {
    fi::ArmScope fault("serve.job", "first=2");
    for (int i = 0; i < 2; ++i) {
      const serve::Client::Reply r = client.submit(cheap_timing_job());
      EXPECT_EQ(r.type, MsgType::kJobError) << r.payload.dump();
      EXPECT_EQ(r.payload.get_number("attempts", 0.0), 1.0);
    }
    // threshold consecutive exhausted jobs tripped the breaker...
    const Json m = client.metrics();
    EXPECT_TRUE(m.get("breaker").get_bool("open", false));
    EXPECT_EQ(m.get("breaker").get_number("trips", 0.0), 1.0);
    // ...which sheds new work with the remaining cooldown as the hint.
    const serve::Client::Reply shed = client.submit(cheap_timing_job());
    EXPECT_EQ(shed.type, MsgType::kJobRejected) << shed.payload.dump();
    EXPECT_TRUE(shed.payload.get_bool("breaker_open", false));
    EXPECT_GT(shed.payload.get_number("retry_after_ms", 0.0), 0.0);
  }
  // The retrying client honors retry_after_ms, rides out the cooldown, and
  // lands the bit-identical result once the breaker closes.
  const serve::Client::Reply reply =
      client.submit_with_retry(cheap_timing_job(), robust_policy());
  ASSERT_TRUE(reply.ok()) << reply.payload.dump();
  EXPECT_EQ(normalized(reply.payload.get("result")).dump(),
            refs.at("timing").full);
  const Json m = server.metrics();
  EXPECT_GE(m.get("jobs").get_number("shed", 0.0), 1.0);
  EXPECT_EQ(m.get("jobs").get_number("failed", 0.0), 2.0);
  server.stop();
}

// ---------------------------------------------------------------------------
// Crash-safe snapshots.
// ---------------------------------------------------------------------------

TEST(FaultSnapshot, WriteFaultIsCountedAndNextStartRunsColdBitIdentical) {
  const auto& refs = references();
  const std::string dir =
      "/tmp/doseopt_test_faultwrite_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  serve::ServerOptions options;
  options.lanes = 1;
  options.snapshot_dir = dir;
  {
    options.uds_path = uds_path("wfault1");
    serve::Server server(options);
    server.start();
    serve::Client client =
        serve::Client::connect_unix_path(options.uds_path);
    const serve::Client::Reply reply =
        client.submit_with_retry(cheap_timing_job(), robust_policy());
    ASSERT_TRUE(reply.ok()) << reply.payload.dump();
    fi::ArmScope fault("serde.snapshot_write", "always");
    server.stop();  // the drain's snapshot save fails but is absorbed
    EXPECT_EQ(
        server.metrics().get("cache").get_number("save_failures", 0.0), 1.0);
  }
  // No snapshot and no stale tmp file were left behind.
  int snap_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp."), std::string::npos) << name;
    if (name.ends_with(".snap")) ++snap_files;
  }
  EXPECT_EQ(snap_files, 0);

  {
    options.uds_path = uds_path("wfault2");
    serve::Server server(options);
    server.start();
    serve::Client client =
        serve::Client::connect_unix_path(options.uds_path);
    const serve::Client::Reply reply =
        client.submit_with_retry(cheap_timing_job(), robust_policy());
    ASSERT_TRUE(reply.ok()) << reply.payload.dump();
    EXPECT_EQ(normalized(reply.payload.get("result")).dump(),
              refs.at("timing").full);
    const Json m = server.metrics();
    EXPECT_EQ(m.get("cache").get_number("snapshots_restored", -1.0), 0.0);
    server.stop();  // this drain persists (fault disarmed)
  }
  EXPECT_EQ(serde::journal_read(dir).size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(FaultSnapshot, CorruptSnapshotIsQuarantinedAndRebuiltColdBitIdentical) {
  const auto& refs = references();
  const std::string dir =
      "/tmp/doseopt_test_faultcorrupt_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  serve::ServerOptions options;
  options.lanes = 1;
  options.snapshot_dir = dir;
  {
    options.uds_path = uds_path("corrupt1");
    serve::Server server(options);
    server.start();
    serve::Client client =
        serve::Client::connect_unix_path(options.uds_path);
    ASSERT_TRUE(
        client.submit_with_retry(cheap_timing_job(), robust_policy()).ok());
    server.stop();
  }
  std::string snap_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().filename().string().ends_with(".snap"))
      snap_path = entry.path().string();
  ASSERT_FALSE(snap_path.empty());
  const std::string snap_name =
      snap_path.substr(snap_path.find_last_of('/') + 1);
  // The journal recorded the write as last-good with its checksum.
  EXPECT_EQ(serde::journal_read(dir).count(snap_name), 1u);

  // Corrupt the payload in place (what a torn write or bit rot produces).
  {
    std::fstream f(snap_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const auto size = std::filesystem::file_size(snap_path);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char bytes[8] = {};
    f.read(bytes, sizeof(bytes));
    for (char& b : bytes) b = static_cast<char>(~b);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.write(bytes, sizeof(bytes));
  }

  {
    options.uds_path = uds_path("corrupt2");
    serve::Server server(options);
    server.start();
    serve::Client client =
        serve::Client::connect_unix_path(options.uds_path);
    const serve::Client::Reply reply =
        client.submit_with_retry(cheap_timing_job(), robust_policy());
    ASSERT_TRUE(reply.ok()) << reply.payload.dump();
    // The checksum caught the corruption; the cold rebuild is
    // deterministic from the spec, so the result is still bit-identical.
    EXPECT_EQ(normalized(reply.payload.get("result")).dump(),
              refs.at("timing").full);
    const Json m = server.metrics();
    EXPECT_EQ(m.get("cache").get_number("restore_failures", 0.0), 1.0);
    EXPECT_EQ(m.get("cache").get_number("snapshots_restored", -1.0), 0.0);
    server.stop();
  }
  // The corrupt file was quarantined for post-mortem, not deleted.
  EXPECT_TRUE(std::filesystem::exists(snap_path + ".corrupt"));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Hostile bytes on the wire.
// ---------------------------------------------------------------------------

TEST(FaultProtocol, MalformedTruncatedAndFuzzedFramesNeverKillTheLane) {
  const auto& refs = references();
  serve::ServerOptions options;
  options.uds_path = uds_path("fuzz");
  options.lanes = 1;
  serve::Server server(options);
  server.start();

  const auto u32le = [](std::uint32_t v, char* out) {
    out[0] = static_cast<char>(v & 0xff);
    out[1] = static_cast<char>((v >> 8) & 0xff);
    out[2] = static_cast<char>((v >> 16) & 0xff);
    out[3] = static_cast<char>((v >> 24) & 0xff);
  };
  const auto header = [&](std::uint32_t magic, std::uint32_t type,
                          std::uint32_t length) {
    std::string h(12, '\0');
    u32le(magic, &h[0]);
    u32le(type, &h[4]);
    u32le(length, &h[8]);
    return h;
  };

  struct Case {
    const char* name;
    std::string bytes;
  };
  std::vector<Case> cases;
  cases.push_back({"garbage magic", header(0x21444142u, 3, 4) + "body"});
  cases.push_back({"oversized length",
                   header(serve::kFrameMagic, 3, serve::kMaxFramePayload + 1)});
  // A negative i32 length read as u32 must hit the same bound, not a
  // gigantic allocation.
  cases.push_back({"negative length",
                   header(serve::kFrameMagic, 3, 0xFFFFFFFFu)});
  cases.push_back({"truncated payload",
                   header(serve::kFrameMagic, 3, 100) + "short"});
  {
    Rng rng(20260807);  // deterministic fuzz bytes
    std::string fuzz(64, '\0');
    for (char& c : fuzz) c = static_cast<char>(rng.next_u64() & 0xff);
    cases.push_back({"fuzz", fuzz});
  }

  for (const Case& c : cases) {
    const int fd = serve::connect_unix(options.uds_path);
    serve::send_all(fd, c.bytes.data(), c.bytes.size());
    ::shutdown(fd, SHUT_WR);  // EOF completes the truncated cases
    // The server answers a best-effort protocol error or just drops the
    // connection; it must not crash or wedge the lane.
    try {
      serve::Frame frame;
      if (serve::read_frame(fd, &frame)) {
        EXPECT_EQ(frame.type, MsgType::kJobError) << c.name;
      }
    } catch (const Error&) {
      // Connection torn down mid-reply: also an acceptable outcome.
    }
    serve::close_socket(fd);
  }

  // After the abuse, the lane still serves good jobs bit-identically.
  serve::Client client = serve::Client::connect_unix_path(options.uds_path);
  const serve::Client::Reply reply =
      client.submit_with_retry(cheap_timing_job(), robust_policy());
  ASSERT_TRUE(reply.ok()) << reply.payload.dump();
  EXPECT_EQ(normalized(reply.payload.get("result")).dump(),
            refs.at("timing").full);
  const Json m = server.metrics();
  EXPECT_GE(m.get("transport").get_number("protocol_errors", 0.0),
            static_cast<double>(cases.size()));
  EXPECT_EQ(m.get("jobs").get_number("failed", -1.0), 0.0);
  server.stop();
}

// ---------------------------------------------------------------------------
// Client-side timeouts.
// ---------------------------------------------------------------------------

TEST(FaultClient, IoTimeoutBoundsADeadServerRead) {
  const std::string path = uds_path("timeout");
  const int listener = serve::listen_unix(path);
  std::thread holder([&] {
    try {
      const int fd = serve::accept_connection(listener);
      if (fd < 0) return;
      // Read but never reply, until the client gives up and disconnects.
      char buf[64];
      while (::recv(fd, buf, sizeof(buf), 0) > 0) {
      }
      serve::close_socket(fd);
    } catch (const std::exception&) {
      // Listener shut down (or an env-armed accept fault): nothing to hold.
    }
  });
  serve::ClientOptions copts;
  copts.connect_timeout_ms = 2000;  // exercises the bounded-connect path
  copts.io_timeout_ms = 150;
  {
    serve::Client client = serve::Client::connect_unix_path(path, copts);
    try {
      client.ping();
      FAIL() << "expected the reply read to time out";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
          << e.what();
    }
    // Scope end disconnects the client, which releases the holder thread.
  }
  serve::close_socket(listener);
  holder.join();
  ::unlink(path.c_str());
}

TEST(FaultClient, ConnectToMissingEndpointThrows) {
  serve::ClientOptions copts;
  copts.connect_timeout_ms = 500;
  EXPECT_THROW(
      serve::Client::connect_unix_path("/tmp/doseopt_no_such_endpoint.sock",
                                       copts),
      Error);
}

}  // namespace
}  // namespace doseopt
