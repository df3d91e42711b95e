#include "fleet/supervisor.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "common/error.h"
#include "serde/result_store.h"
#include "serve/client.h"

extern char** environ;

namespace doseopt::fleet {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

bool executable(const std::string& path) {
  return ::access(path.c_str(), X_OK) == 0;
}

std::string self_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  const std::string exe(buf);
  const std::size_t slash = exe.find_last_of('/');
  return slash == std::string::npos ? "" : exe.substr(0, slash);
}

}  // namespace

std::string Supervisor::discover_server_bin() {
  if (const char* env = std::getenv("DOSEOPT_SERVER_BIN");
      env != nullptr && env[0] != '\0') {
    if (executable(env)) return env;
    throw Error(std::string("fleet: $DOSEOPT_SERVER_BIN is not executable: ") +
                env);
  }
  const std::string dir = self_dir();
  if (!dir.empty()) {
    // Same directory (tools/ binaries), then sibling tools/ (test binaries
    // live in build/tests, the server in build/tools).
    for (const std::string& candidate :
         {dir + "/doseopt_server", dir + "/../tools/doseopt_server"})
      if (executable(candidate)) return candidate;
  }
  throw Error("fleet: cannot locate doseopt_server (set $DOSEOPT_SERVER_BIN)");
}

Supervisor::Supervisor(SupervisorOptions options)
    : options_(std::move(options)) {
  DOSEOPT_CHECK(options_.workers >= 1, "fleet: need at least one worker");
  DOSEOPT_CHECK(!options_.runtime_dir.empty(),
                "fleet: supervisor needs a runtime_dir");
}

Supervisor::~Supervisor() { stop(); }

void Supervisor::start() {
  DOSEOPT_CHECK(!running_.load(std::memory_order_acquire),
                "fleet: supervisor already started");
  if (options_.server_bin.empty())
    options_.server_bin = discover_server_bin();
  std::filesystem::create_directories(options_.runtime_dir);
  // A previous fleet that died between write and rename leaks temp files
  // into the shared snapshot/result dirs; reclaim provably-dead writers'
  // leftovers before any worker starts publishing.
  if (!options_.snapshot_dir.empty())
    serde::reclaim_stale_tmp_files(options_.snapshot_dir);
  if (!options_.result_store_dir.empty())
    serde::reclaim_stale_tmp_files(options_.result_store_dir);

  workers_.clear();
  for (int i = 0; i < options_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->socket =
        options_.runtime_dir + "/worker" + std::to_string(i) + ".sock";
    workers_.push_back(std::move(worker));
  }

  running_.store(true, std::memory_order_release);
  try {
    for (const auto& worker : workers_) {
      {
        std::lock_guard<std::mutex> lock(pids_mu_);
        spawn(*worker);
      }
      wait_ready(*worker);
    }
  } catch (...) {
    running_.store(false, std::memory_order_release);
    stop();
    throw;
  }
  monitor_ = std::thread([this] { monitor_loop(); });
  if (options_.verbose)
    std::fprintf(stderr, "[fleet] %d workers up (%s)\n", options_.workers,
                 options_.server_bin.c_str());
}

void Supervisor::stop() {
  running_.store(false, std::memory_order_release);
  if (monitor_.joinable()) monitor_.join();

  // Graceful first: SIGTERM triggers the server's drain (queued jobs
  // finish, sessions snapshot).  Stragglers get SIGKILL after the bound.
  std::lock_guard<std::mutex> lock(pids_mu_);
  for (const auto& worker : workers_)
    if (worker->pid > 0) ::kill(worker->pid, SIGTERM);
  const auto deadline_start = std::chrono::steady_clock::now();
  for (const auto& worker : workers_) {
    while (worker->pid > 0) {
      const pid_t reaped = ::waitpid(worker->pid, nullptr, WNOHANG);
      if (reaped == worker->pid || (reaped < 0 && errno == ECHILD)) {
        worker->pid = -1;
        worker->alive.store(false, std::memory_order_release);
        break;
      }
      if (ms_since(deadline_start) > 5000.0) {
        ::kill(worker->pid, SIGKILL);
        ::waitpid(worker->pid, nullptr, 0);
        worker->pid = -1;
        worker->alive.store(false, std::memory_order_release);
        break;
      }
      ::usleep(10 * 1000);
    }
  }
}

const std::string& Supervisor::worker_socket(int i) const {
  return workers_.at(static_cast<std::size_t>(i))->socket;
}

bool Supervisor::alive(int i) const {
  return workers_.at(static_cast<std::size_t>(i))
      ->alive.load(std::memory_order_acquire);
}

std::uint64_t Supervisor::generation(int i) const {
  return workers_.at(static_cast<std::size_t>(i))
      ->generation.load(std::memory_order_acquire);
}

std::uint64_t Supervisor::respawns(int i) const {
  return workers_.at(static_cast<std::size_t>(i))
      ->respawns.load(std::memory_order_acquire);
}

std::uint64_t Supervisor::total_respawns() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_)
    total += worker->respawns.load(std::memory_order_acquire);
  return total;
}

std::vector<bool> Supervisor::alive_mask() const {
  std::vector<bool> mask;
  mask.reserve(workers_.size());
  for (const auto& worker : workers_)
    mask.push_back(worker->alive.load(std::memory_order_acquire));
  return mask;
}

void Supervisor::kill_worker(int i) {
  std::lock_guard<std::mutex> lock(pids_mu_);
  Worker& worker = *workers_.at(static_cast<std::size_t>(i));
  if (worker.pid <= 0) return;
  if (options_.verbose)
    std::fprintf(stderr, "[fleet] killing worker %d (pid %d)\n", i,
                 static_cast<int>(worker.pid));
  worker.alive.store(false, std::memory_order_release);
  ::kill(worker.pid, SIGKILL);
  // The monitor reaps and respawns.
}

void Supervisor::spawn(Worker& worker) {
  // Everything the child needs is materialized before fork(): this parent
  // is multithreaded, so between fork and exec only async-signal-safe
  // calls (execv, _exit) are allowed.
  std::vector<std::string> args = {
      options_.server_bin,
      "--socket", worker.socket,
      "--lanes", std::to_string(options_.lanes),
      "--queue", std::to_string(options_.queue_capacity),
  };
  if (!options_.snapshot_dir.empty()) {
    args.push_back("--snapshot-dir");
    args.push_back(options_.snapshot_dir);
  }
  if (!options_.result_store_dir.empty()) {
    args.push_back("--result-cache");
    args.push_back(options_.result_store_dir);
  }
  if (options_.eager_snapshots) args.push_back("--eager-snapshots");
  if (options_.crash_faults) args.push_back("--crash-faults");
  if (options_.verbose) args.push_back("--verbose");
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  // Environment: inherit, except DOSEOPT_FAULTS.  Generation 0 gets
  // `worker_faults` (or the inherited value); a respawned worker gets the
  // variable REMOVED -- re-arming the fault that killed its predecessor
  // (hit counters are per-process) would crash-loop the fleet forever.
  // The replacement process models post-crash recovery, not the crash.
  const bool first_generation =
      worker.generation.load(std::memory_order_relaxed) == 0;
  std::vector<std::string> env_storage;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DOSEOPT_FAULTS=", 15) == 0) continue;
    env_storage.emplace_back(*e);
  }
  if (first_generation) {
    if (!options_.worker_faults.empty())
      env_storage.push_back("DOSEOPT_FAULTS=" + options_.worker_faults);
    else if (const char* inherited = std::getenv("DOSEOPT_FAULTS");
             inherited != nullptr && inherited[0] != '\0')
      env_storage.push_back(std::string("DOSEOPT_FAULTS=") + inherited);
  }
  std::vector<char*> envp;
  envp.reserve(env_storage.size() + 1);
  for (auto& e : env_storage) envp.push_back(e.data());
  envp.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0)
    throw Error(std::string("fleet: fork failed: ") + std::strerror(errno));
  if (pid == 0) {
    // Die with the supervisor: an embedded fleet whose driver is SIGKILLed
    // (the campaign crash drills do exactly that) must not leak workers.
    // prctl is async-signal-safe; a failure just loses the tether.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::execve(argv[0], argv.data(), envp.data());
    _exit(127);  // exec failed; async-signal-safe exit only
  }
  worker.pid = pid;
}

void Supervisor::wait_ready(Worker& worker) {
  constexpr double kReadyTimeoutMs = 60000.0;  // spawn -> first pong
  const auto t0 = std::chrono::steady_clock::now();
  serve::ClientOptions copts;
  copts.connect_timeout_ms = 250;
  copts.io_timeout_ms = 2000;
  while (true) {
    try {
      serve::Client probe =
          serve::Client::connect_unix_path(worker.socket, copts);
      probe.ping();
      worker.alive.store(true, std::memory_order_release);
      return;
    } catch (const std::exception&) {
      if (ms_since(t0) > kReadyTimeoutMs)
        throw Error("fleet: worker on " + worker.socket +
                    " not ready after " +
                    std::to_string(kReadyTimeoutMs) + "ms");
      ::usleep(20 * 1000);
    }
  }
}

void Supervisor::monitor_loop() {
  while (running_.load(std::memory_order_acquire)) {
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Worker& worker = *workers_[i];
      bool dead = false;
      {
        std::lock_guard<std::mutex> lock(pids_mu_);
        if (worker.pid <= 0) continue;
        int status = 0;
        const pid_t reaped = ::waitpid(worker.pid, &status, WNOHANG);
        if (reaped == worker.pid) {
          dead = true;
          worker.pid = -1;
          worker.alive.store(false, std::memory_order_release);
          if (options_.verbose)
            std::fprintf(stderr, "[fleet] worker %zu died (status 0x%x)\n", i,
                         static_cast<unsigned>(status));
        }
      }
      if (!dead || !running_.load(std::memory_order_acquire)) continue;
      worker.generation.fetch_add(1, std::memory_order_acq_rel);
      worker.respawns.fetch_add(1, std::memory_order_acq_rel);
      try {
        {
          std::lock_guard<std::mutex> lock(pids_mu_);
          spawn(worker);
        }
        wait_ready(worker);
        if (options_.verbose)
          std::fprintf(stderr, "[fleet] worker %zu respawned (pid %d)\n", i,
                       static_cast<int>(worker.pid));
      } catch (const std::exception& e) {
        // Leave the worker marked dead; the ring routes around it and the
        // next monitor pass retries the respawn if the process died again.
        std::fprintf(stderr, "[fleet] respawn of worker %zu failed: %s\n", i,
                     e.what());
      }
    }
    ::usleep(50 * 1000);
  }
}

}  // namespace doseopt::fleet
