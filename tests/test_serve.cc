// End-to-end tests for the job server: the JSON layer, the wire protocol,
// and -- the core guarantee -- that served results are bit-identical to
// direct flow:: calls for cold and cache-warm requests at 1/2/8 worker
// lanes, under concurrent mixed jobs.  Also covers backpressure rejection,
// per-job deadlines, and snapshot warm-starts across server restarts.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "flow/optimize.h"
#include "serde/result_store.h"
#include "serve/client.h"
#include "serve/job.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"

namespace doseopt {
namespace {

using serve::Json;
using serve::JobSpec;
using serve::MsgType;

// ---------------------------------------------------------------------------
// JSON layer.
// ---------------------------------------------------------------------------

TEST(Json, DumpParseRoundTripIsBitExact) {
  Json obj = Json::object();
  obj.set("pi", Json::number(3.141592653589793));
  obj.set("tiny", Json::number(5.0e-324));  // denormal min
  obj.set("neg", Json::number(-0.1));
  obj.set("big", Json::number(1.7976931348623157e308));
  obj.set("text", Json::string("line\n\"quoted\"\t\\"));
  Json arr = Json::array();
  arr.push_back(Json::boolean(true));
  arr.push_back(Json());
  arr.push_back(Json::number(42.0));
  obj.set("arr", std::move(arr));

  const std::string dumped = obj.dump();
  const Json back = Json::parse(dumped);
  EXPECT_EQ(back.get("pi").as_number(), 3.141592653589793);
  EXPECT_EQ(back.get("tiny").as_number(), 5.0e-324);
  EXPECT_EQ(back.get("neg").as_number(), -0.1);
  EXPECT_EQ(back.get("big").as_number(), 1.7976931348623157e308);
  EXPECT_EQ(back.get("text").as_string(), "line\n\"quoted\"\t\\");
  EXPECT_TRUE(back.get("arr").items()[0].as_bool());
  EXPECT_TRUE(back.get("arr").items()[1].is_null());
  // Deterministic serialization: dump of the parse equals the dump.
  EXPECT_EQ(back.dump(), dumped);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), doseopt::Error);
  EXPECT_THROW(Json::parse("{"), doseopt::Error);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), doseopt::Error);
  EXPECT_THROW(Json::parse("[1 2]"), doseopt::Error);
  EXPECT_THROW(Json::parse("\"unterminated"), doseopt::Error);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), doseopt::Error);
  EXPECT_THROW(Json::parse("nul"), doseopt::Error);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  const Json v = Json::parse("\"\\u20ac\\u0041\"");
  EXPECT_EQ(v.as_string(), "\xE2\x82\xAC" "A");
}

// ---------------------------------------------------------------------------
// Wire protocol over a socketpair.
// ---------------------------------------------------------------------------

TEST(Protocol, FramesRoundTripAndRejectCorruption) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  serve::write_frame(fds[0], MsgType::kJobRequest, "{\"design\":\"aes65\"}");
  serve::Frame frame;
  ASSERT_TRUE(serve::read_frame(fds[1], &frame));
  EXPECT_EQ(frame.type, MsgType::kJobRequest);
  EXPECT_EQ(frame.payload, "{\"design\":\"aes65\"}");

  // Garbage magic -> clean error, not a hang or UB.
  const char garbage[12] = {0x42, 0x41, 0x44, 0x21, 0, 0, 0, 0, 0, 0, 0, 0};
  serve::send_all(fds[0], garbage, sizeof(garbage));
  EXPECT_THROW(serve::read_frame(fds[1], &frame), doseopt::Error);

  serve::close_socket(fds[0]);
  serve::close_socket(fds[1]);
}

TEST(JobSpecTest, ValidatesAndHashesConsistently) {
  const JobSpec a = JobSpec::from_json(Json::parse(
      "{\"design\":\"aes65\",\"scale\":0.05,\"mode\":\"leakage\"}"));
  EXPECT_EQ(a.design, "aes65");
  EXPECT_EQ(a.mode, "leakage");

  // Round trip through to_json preserves identity.
  const JobSpec b = JobSpec::from_json(a.to_json());
  EXPECT_EQ(a.job_key(), b.job_key());
  EXPECT_EQ(a.session_key(), b.session_key());

  // Session key ignores solver knobs; job key does not.
  JobSpec c = a;
  c.grid_um = 99.0;
  EXPECT_EQ(a.session_key(), c.session_key());
  EXPECT_NE(a.job_key(), c.job_key());

  EXPECT_THROW(JobSpec::from_json(Json::parse("{\"scale\":0}")),
               doseopt::Error);
  EXPECT_THROW(JobSpec::from_json(Json::parse("{\"mode\":\"bogus\"}")),
               doseopt::Error);
  EXPECT_THROW(JobSpec::from_json(Json::parse("{\"grid\":-1}")),
               doseopt::Error);
}

// ---------------------------------------------------------------------------
// End-to-end: served results == direct flow:: results, bit for bit.
// ---------------------------------------------------------------------------

/// Zero out wall-clock fields, which legitimately differ between runs.
/// Everything else -- including the deterministic cutting-plane counters
/// (cut_rounds, admm_iterations, cuts) -- is compared bit-exact.
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

std::string uds_path(const char* tag) {
  return "/tmp/doseopt_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// The mixed job set: two sessions (aes65, jpeg65), both DMopt modes, and a
/// dosePl job that mutates placement state (the server must restore it).
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

/// Same session as the timing job but a different solver knob: exercises a
/// warm *context* with a cold *result* (parameter sweep).
JobSpec grid_variant_job() {
  JobSpec v = mixed_jobs()[0];
  v.id = "timing-g14";
  v.grid_um = 14.0;
  return v;
}

/// Direct flow:: reference results, computed once for the whole suite.
const std::map<std::string, std::string>& reference_results() {
  static const std::map<std::string, std::string> refs = [] {
    std::map<std::string, std::string> out;
    std::map<std::uint64_t, std::unique_ptr<flow::DesignContext>> contexts;
    std::vector<JobSpec> specs = mixed_jobs();
    specs.push_back(grid_variant_job());
    for (const JobSpec& spec : specs) {
      auto& ctx = contexts[spec.session_key()];
      if (!ctx)
        ctx = std::make_unique<flow::DesignContext>(spec.design_spec());
      const flow::FlowResult r = flow::run_flow(*ctx, spec.flow_options());
      out[spec.id] = normalized(serve::flow_result_to_json(r)).dump();
      if (spec.run_dosepl) {
        // dosePl mutated the context; drop it so a later job on the same
        // session would start pristine (mirrors the server's restore).
        contexts.erase(spec.session_key());
      }
    }
    return out;
  }();
  return refs;
}

TEST(ServerE2E, ConcurrentMixedJobsBitIdenticalAcrossLaneCounts) {
  const auto& refs = reference_results();
  for (const int lanes : {1, 2, 8}) {
    serve::ServerOptions options;
    options.uds_path = uds_path("e2e");
    options.lanes = lanes;
    options.queue_capacity = 32;
    serve::Server server(options);
    server.start();

    // Two passes: pass 0 is cold (cache misses); pass 1 repeats every job
    // (result-cache hits) and adds a parameter-sweep variant that reuses
    // the session but must re-solve (context hit, result miss).
    std::size_t total_jobs = 0;
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<JobSpec> jobs = mixed_jobs();
      if (pass == 1) jobs.push_back(grid_variant_job());
      total_jobs += jobs.size();
      std::vector<std::string> replies(jobs.size());
      std::vector<std::thread> threads;
      threads.reserve(jobs.size());
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        threads.emplace_back([&, i] {
          serve::Client client =
              serve::Client::connect_unix_path(options.uds_path);
          const serve::Client::Reply reply =
              client.submit_with_retry(jobs[i]);
          ASSERT_TRUE(reply.ok())
              << "lanes=" << lanes << " job=" << jobs[i].id << ": "
              << reply.payload.dump();
          replies[i] = normalized(reply.payload.get("result")).dump();
          if (pass == 1) {
            const Json& cache = reply.payload.get("cache");
            EXPECT_TRUE(cache.get_bool("context_hit", false)) << jobs[i].id;
            // Repeated jobs skip the solve entirely; the sweep variant
            // must NOT reuse a memoized result.
            EXPECT_EQ(cache.get_bool("result_hit", true),
                      jobs[i].id != "timing-g14")
                << jobs[i].id;
          }
        });
      }
      for (auto& t : threads) t.join();
      for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(replies[i], refs.at(jobs[i].id))
            << "lanes=" << lanes << " pass=" << pass
            << " job=" << jobs[i].id;
    }

    const Json m = server.metrics();
    EXPECT_EQ(m.get("jobs").get_number("completed", -1.0),
              static_cast<double>(total_jobs));
    EXPECT_EQ(m.get("jobs").get_number("failed", -1.0), 0.0);
    server.stop();
  }
}

TEST(ServerE2E, SstaYieldJobBitIdenticalAndMemoized) {
  JobSpec spec;
  spec.id = "ssta";
  spec.design = "aes65";
  spec.scale = 0.025;
  spec.mode = "ssta_yield";
  spec.mc_samples = 400;

  // Direct flow:: reference.  ssta_yield results carry no wall-clock
  // fields, so the comparison is bit-exact with no normalization.
  flow::DesignContext ctx(spec.design_spec());
  const std::string direct =
      serve::ssta_yield_result_to_json(
          flow::run_ssta_yield(ctx, spec.ssta_options()))
          .dump();

  serve::ServerOptions options;
  options.uds_path = uds_path("ssta");
  options.lanes = 2;
  serve::Server server(options);
  server.start();
  serve::Client client = serve::Client::connect_unix_path(options.uds_path);

  const serve::Client::Reply cold = client.submit(spec);
  ASSERT_TRUE(cold.ok()) << cold.payload.dump();
  EXPECT_FALSE(cold.payload.get("cache").get_bool("result_hit", true));
  EXPECT_EQ(cold.payload.get("result").dump(), direct);

  // The repeat is memoized: result-cache hit, same bits.
  const serve::Client::Reply warm = client.submit(spec);
  ASSERT_TRUE(warm.ok()) << warm.payload.dump();
  EXPECT_TRUE(warm.payload.get("cache").get_bool("result_hit", false));
  EXPECT_EQ(warm.payload.get("result").dump(), direct);
  server.stop();
}

TEST(ServerE2E, TcpListenerServesJobs) {
  serve::ServerOptions options;
  options.tcp_port = 0;  // kernel-assigned
  options.lanes = 1;
  serve::Server server(options);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);

  serve::Client client = serve::Client::connect_tcp_port(server.tcp_port());
  client.ping();
  JobSpec spec = mixed_jobs()[0];
  const serve::Client::Reply reply = client.submit(spec);
  ASSERT_TRUE(reply.ok()) << reply.payload.dump();
  EXPECT_EQ(normalized(reply.payload.get("result")).dump(),
            reference_results().at(spec.id));
  server.stop();
}

/// Poll the server's metrics until the top-level `field` reads `value`;
/// false if it has not after a minute.
bool wait_for_metric(const serve::Server& server, const char* field,
                     double value) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.metrics().get_number(field, -1.0) != value) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ServerE2E, FullQueueRejectsWithRetryAfter) {
  serve::ServerOptions options;
  options.uds_path = uds_path("backpressure");
  options.lanes = 1;
  options.queue_capacity = 1;
  options.retry_after_ms = 123.0;
  serve::Server server(options);
  server.start();

  // Three raw connections: A occupies the lane, B fills the queue, C must
  // be rejected immediately with the configured retry hint.  Each step
  // waits on the server's own counters instead of a sleep, so A only has
  // to stay busy across two metric polls; its cold session build (unique
  // seed) is ample.
  const int a = serve::connect_unix(options.uds_path);
  const int b = serve::connect_unix(options.uds_path);
  const int c = serve::connect_unix(options.uds_path);
  JobSpec busy = mixed_jobs()[0];
  busy.seed = 20260807;
  JobSpec cheap = mixed_jobs()[0];
  serve::write_frame(a, MsgType::kJobRequest, busy.to_json().dump());
  ASSERT_TRUE(wait_for_metric(server, "in_flight", 1.0));
  serve::write_frame(b, MsgType::kJobRequest, cheap.to_json().dump());
  ASSERT_TRUE(wait_for_metric(server, "queue_depth", 1.0));
  serve::write_frame(c, MsgType::kJobRequest, cheap.to_json().dump());

  serve::Frame frame;
  ASSERT_TRUE(serve::read_frame(c, &frame));
  EXPECT_EQ(frame.type, MsgType::kJobRejected);
  EXPECT_EQ(Json::parse(frame.payload).get_number("retry_after_ms", 0.0),
            123.0);

  // A and B still complete (graceful behavior under pressure).
  ASSERT_TRUE(serve::read_frame(a, &frame));
  EXPECT_EQ(frame.type, MsgType::kJobResult);
  ASSERT_TRUE(serve::read_frame(b, &frame));
  EXPECT_EQ(frame.type, MsgType::kJobResult);

  const Json m = server.metrics();
  EXPECT_EQ(m.get("jobs").get_number("rejected", -1.0), 1.0);
  serve::close_socket(a);
  serve::close_socket(b);
  serve::close_socket(c);
  server.stop();
}

TEST(ServerE2E, ExpiredDeadlineSkipsJob) {
  serve::ServerOptions options;
  options.uds_path = uds_path("deadline");
  options.lanes = 1;
  serve::Server server(options);
  server.start();

  const int a = serve::connect_unix(options.uds_path);
  const int b = serve::connect_unix(options.uds_path);
  // Once A holds the lane, its cold session build (unique seed) outlasts
  // `hurried`'s 1 ms deadline many times over.
  JobSpec busy = mixed_jobs()[0];
  busy.seed = 20260807;
  JobSpec hurried = mixed_jobs()[0];
  hurried.id = "hurried";
  hurried.deadline_ms = 1.0;  // expires while queued behind `busy`
  serve::write_frame(a, MsgType::kJobRequest, busy.to_json().dump());
  ASSERT_TRUE(wait_for_metric(server, "in_flight", 1.0));
  serve::write_frame(b, MsgType::kJobRequest, hurried.to_json().dump());

  serve::Frame frame;
  ASSERT_TRUE(serve::read_frame(b, &frame));
  EXPECT_EQ(frame.type, MsgType::kJobError);
  const Json err = Json::parse(frame.payload);
  EXPECT_TRUE(err.get_bool("expired", false)) << frame.payload;

  ASSERT_TRUE(serve::read_frame(a, &frame));
  EXPECT_EQ(frame.type, MsgType::kJobResult);
  serve::close_socket(a);
  serve::close_socket(b);
  server.stop();
}

TEST(ServerE2E, MalformedRequestAnswersJobError) {
  serve::ServerOptions options;
  options.uds_path = uds_path("badreq");
  options.lanes = 1;
  serve::Server server(options);
  server.start();

  const int fd = serve::connect_unix(options.uds_path);
  serve::write_frame(fd, MsgType::kJobRequest, "{\"scale\": -3}");
  serve::Frame frame;
  ASSERT_TRUE(serve::read_frame(fd, &frame));
  EXPECT_EQ(frame.type, MsgType::kJobError);
  serve::write_frame(fd, MsgType::kJobRequest, "not json at all");
  ASSERT_TRUE(serve::read_frame(fd, &frame));
  EXPECT_EQ(frame.type, MsgType::kJobError);
  const Json jobs = server.metrics().get("jobs");
  EXPECT_EQ(jobs.get_number("invalid", -1.0), 2.0);
  EXPECT_EQ(jobs.get_number("accepted", -1.0), 0.0);
  serve::close_socket(fd);
  server.stop();
}

TEST(ServerE2E, SnapshotWarmStartSkipsCharacterization) {
  const std::string dir =
      "/tmp/doseopt_test_warmstart_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  JobSpec spec = mixed_jobs()[0];

  serve::ServerOptions options;
  options.uds_path = uds_path("warm1");
  options.lanes = 1;
  options.snapshot_dir = dir;

  std::string first_result;
  {
    serve::Server server(options);
    server.start();
    serve::Client client =
        serve::Client::connect_unix_path(options.uds_path);
    // Coefficients must be fitted so the snapshot carries the variants.
    const serve::Client::Reply reply = client.submit(spec);
    ASSERT_TRUE(reply.ok()) << reply.payload.dump();
    first_result = normalized(reply.payload.get("result")).dump();
    server.stop();  // persists the session snapshot
  }
  ASSERT_FALSE(std::filesystem::is_empty(dir));

  {
    options.uds_path = uds_path("warm2");
    serve::Server server(options);
    server.start();
    serve::Client client =
        serve::Client::connect_unix_path(options.uds_path);
    const serve::Client::Reply reply = client.submit(spec);
    ASSERT_TRUE(reply.ok()) << reply.payload.dump();
    EXPECT_TRUE(
        reply.payload.get("cache").get_bool("snapshot_restored", false));
    EXPECT_EQ(normalized(reply.payload.get("result")).dump(), first_result);

    // The restored repository adopted every variant: zero characterization
    // runs happened in this server process for this job.
    const Json m = server.metrics();
    EXPECT_EQ(m.get("cache").get_number("characterize_calls", -1.0), 0.0);
    EXPECT_EQ(m.get("cache").get_number("snapshots_restored", -1.0), 1.0);
    server.stop();
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Unix-socket path hygiene at startup.
// ---------------------------------------------------------------------------

TEST(Socket, ListenUnixReclaimsStaleButRefusesLiveAndForeignFiles) {
  const std::string path = uds_path("stale");
  ::unlink(path.c_str());

  // A crashed server leaves its socket file behind; a restart must reclaim
  // it instead of dying with EADDRINUSE.
  int fd = serve::listen_unix(path);
  serve::close_socket(fd);  // no unlink: models an unclean exit
  ASSERT_TRUE(std::filesystem::exists(path));
  fd = serve::listen_unix(path);
  ASSERT_GE(fd, 0);

  // While a live listener holds the path, a second bind must refuse --
  // silently stealing the socket would split clients across two servers.
  EXPECT_THROW(serve::listen_unix(path), doseopt::Error);
  serve::close_socket(fd);
  ::unlink(path.c_str());

  // Never unlink a path that is not a socket: that would eat user files.
  {
    std::ofstream os(path);
    os << "precious";
  }
  EXPECT_THROW(serve::listen_unix(path), doseopt::Error);
  {
    std::ifstream is(path);
    std::string content;
    is >> content;
    EXPECT_EQ(content, "precious");
  }
  ::unlink(path.c_str());
}

TEST(ServerE2E, RestartOverStaleSocketFileServes) {
  serve::ServerOptions options;
  options.uds_path = uds_path("restart");
  options.lanes = 1;
  ::unlink(options.uds_path.c_str());
  {
    const int stale = serve::listen_unix(options.uds_path);
    serve::close_socket(stale);  // leaves the stale file in place
  }
  serve::Server server(options);
  server.start();  // reclaims the stale path
  serve::Client client = serve::Client::connect_unix_path(options.uds_path);
  client.ping();
  server.stop();
}

// ---------------------------------------------------------------------------
// Shared on-disk result store + per-stage latency histograms.
// ---------------------------------------------------------------------------

TEST(ServerE2E, ResultStoreDiskHitQuarantineAndLatencyHistograms) {
  const std::string dir =
      "/tmp/doseopt_test_resultcache_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const JobSpec spec = mixed_jobs()[0];

  serve::ServerOptions options;
  options.lanes = 1;
  options.result_store_dir = dir;

  std::string first_result;
  {
    options.uds_path = uds_path("store1");
    serve::Server server(options);
    server.start();
    serve::Client client =
        serve::Client::connect_unix_path(options.uds_path);
    const serve::Client::Reply reply = client.submit(spec);
    ASSERT_TRUE(reply.ok()) << reply.payload.dump();
    first_result = normalized(reply.payload.get("result")).dump();
    EXPECT_EQ(first_result, reference_results().at(spec.id));

    // The per-stage latency histograms saw exactly this one solve.
    const Json m = server.metrics();
    ASSERT_TRUE(m.has("latency_histograms"));
    const Json& h = m.get("latency_histograms");
    for (const char* stage : {"job", "context", "coefficients", "flow"})
      EXPECT_EQ(h.get(stage).get_number("count", -1.0), 1.0) << stage;
    EXPECT_GT(h.get("job").get_number("max_ms", 0.0), 0.0);
    EXPECT_LE(h.get("job").get_number("p50_ms", 1.0e99),
              h.get("job").get_number("p99_ms", -1.0));
    server.stop();
  }

  // A second server (fresh in-memory caches, same shared store) answers
  // the repeat as a disk hit with the bit-identical document.
  const std::string record = serde::result_path(dir, spec.job_key());
  ASSERT_TRUE(std::filesystem::exists(record));
  {
    options.uds_path = uds_path("store2");
    serve::Server server(options);
    server.start();
    serve::Client client =
        serve::Client::connect_unix_path(options.uds_path);
    const serve::Client::Reply reply = client.submit(spec);
    ASSERT_TRUE(reply.ok()) << reply.payload.dump();
    EXPECT_TRUE(reply.payload.get("cache").get_bool("result_hit", false));
    EXPECT_EQ(normalized(reply.payload.get("result")).dump(), first_result);
    const Json m = server.metrics();
    EXPECT_EQ(m.get("cache").get_number("result_disk_hits", -1.0), 1.0);
    EXPECT_EQ(m.get("cache").get_number("result_quarantined", -1.0), 0.0);
    server.stop();
  }

  // Corrupt the shared record in place (torn write / bit rot): a third
  // server quarantines it, re-solves bit-identically, and republishes.
  {
    std::fstream f(record, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(
        std::filesystem::file_size(record) - 1));
    f.put('\xFF');
  }
  {
    options.uds_path = uds_path("store3");
    serve::Server server(options);
    server.start();
    serve::Client client =
        serve::Client::connect_unix_path(options.uds_path);
    const serve::Client::Reply reply = client.submit(spec);
    ASSERT_TRUE(reply.ok()) << reply.payload.dump();
    EXPECT_FALSE(reply.payload.get("cache").get_bool("result_hit", true));
    EXPECT_EQ(normalized(reply.payload.get("result")).dump(), first_result);
    const Json m = server.metrics();
    EXPECT_EQ(m.get("cache").get_number("result_quarantined", -1.0), 1.0);
    server.stop();
  }
  EXPECT_TRUE(std::filesystem::exists(record + ".corrupt"));
  // The deterministic re-solve republished a valid record.
  const auto republished = serde::read_result(dir, spec.job_key());
  ASSERT_TRUE(republished.has_value());
  EXPECT_EQ(normalized(Json::parse(*republished)).dump(), first_result);
  std::filesystem::remove_all(dir);
}

TEST(ServerE2E, ResultStoreResolvesRecordsOfAnOlderVersion) {
  // Version-1 stores may hold leakage-mode results that break their timing
  // bound.  A record of an older version is set aside like a corrupt one,
  // and the re-solve republishes it at the current version.
  const std::string dir =
      "/tmp/doseopt_test_resultversion_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const JobSpec spec = mixed_jobs()[1];
  const std::string record = serde::result_path(dir, spec.job_key());
  serde::write_result(dir, spec.job_key(), "{\"stale\":true}");
  {
    // The u32 version follows the 8-byte magic, little-endian.
    std::fstream f(record, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(8);
    f.write("\x01\x00\x00\x00", 4);
  }
  EXPECT_THROW(serde::read_result(dir, spec.job_key()), doseopt::Error);

  serve::ServerOptions options;
  options.lanes = 1;
  options.result_store_dir = dir;
  options.uds_path = uds_path("version");
  {
    serve::Server server(options);
    server.start();
    serve::Client client =
        serve::Client::connect_unix_path(options.uds_path);
    const serve::Client::Reply reply = client.submit(spec);
    ASSERT_TRUE(reply.ok()) << reply.payload.dump();
    EXPECT_FALSE(reply.payload.get("cache").get_bool("result_hit", true));
    EXPECT_EQ(normalized(reply.payload.get("result")).dump(),
              reference_results().at(spec.id));
    const Json m = server.metrics();
    EXPECT_EQ(m.get("cache").get_number("result_quarantined", -1.0), 1.0);
    server.stop();
  }
  EXPECT_TRUE(std::filesystem::exists(record + ".corrupt"));
  char header[12];
  std::ifstream is(record, std::ios::binary);
  ASSERT_TRUE(is.read(header, sizeof(header)));
  EXPECT_EQ(static_cast<unsigned char>(header[8]),
            serde::kResultStoreVersion);
  const auto republished = serde::read_result(dir, spec.job_key());
  ASSERT_TRUE(republished.has_value());
  EXPECT_EQ(normalized(Json::parse(*republished)).dump(),
            reference_results().at(spec.id));
  std::filesystem::remove_all(dir);
}

TEST(ServerE2E, ShutdownFrameTriggersGracefulDrain) {
  serve::ServerOptions options;
  options.uds_path = uds_path("drain");
  options.lanes = 1;
  serve::Server server(options);
  server.start();

  serve::Client client = serve::Client::connect_unix_path(options.uds_path);
  client.request_shutdown();
  server.wait_for_shutdown();  // returns promptly on the kShutdown frame
  server.stop();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace doseopt
