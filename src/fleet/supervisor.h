// Worker-process supervisor for the doseopt serving fleet.
//
// Spawns N `doseopt_server` worker processes (fork + exec of the real
// binary -- in-process forks are unsafe from a multithreaded parent), each
// listening on its own Unix-domain socket under `runtime_dir` and all
// sharing ONE snapshot directory and ONE result-store directory.  Sharing
// is safe because both stores publish with atomic tmp+rename writes of
// deterministic content: concurrent writers can only race to install
// identical bytes.
//
// A monitor thread reaps dead workers (waitpid WNOHANG) and respawns them
// on the same socket path; the respawned process restores its sessions
// from the shared snapshots (workers run with eager snapshotting, so a
// session persisted right after its cold build survives a later SIGKILL).
// kill_worker() injects a hard death on purpose -- the fleet tests and the
// load generator use it to prove that mid-job kills still end in
// bit-identical client results.
//
// Worker stdout/stderr are inherited.  When `worker_faults` is set it is
// exported to the workers as DOSEOPT_FAULTS (replacing any inherited
// value), which is how the fault sweep arms fleet.worker_crash inside the
// worker without arming it in the parent.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <thread>
#include <vector>

namespace doseopt::fleet {

struct SupervisorOptions {
  std::string server_bin;        ///< "" = discover_server_bin()
  std::string runtime_dir;       ///< worker sockets live here (required)
  std::string snapshot_dir;      ///< shared across workers ("" = off)
  std::string result_store_dir;  ///< shared across workers ("" = off)
  int workers = 2;
  int lanes = 2;                 ///< per worker
  std::size_t queue_capacity = 16;  ///< per worker
  bool eager_snapshots = true;   ///< persist sessions right after cold build
  bool crash_faults = false;     ///< pass --crash-faults to workers
  std::string worker_faults;     ///< DOSEOPT_FAULTS for workers ("" = inherit)
  bool verbose = false;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions options);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Spawn every worker, wait until each answers a ping, start the monitor.
  /// Throws doseopt::Error when a worker fails to come up.
  void start();

  /// Stop the monitor, then terminate workers: SIGTERM (graceful drain),
  /// bounded wait, SIGKILL stragglers.  Idempotent.
  void stop();

  int workers() const { return static_cast<int>(workers_.size()); }
  const std::string& worker_socket(int i) const;
  bool alive(int i) const;
  /// Monotonic per-worker generation: 0 for the original process, +1 per
  /// respawn.  Routers use a generation change to drop stale links.
  std::uint64_t generation(int i) const;
  std::uint64_t respawns(int i) const;
  std::uint64_t total_respawns() const;
  std::vector<bool> alive_mask() const;

  /// SIGKILL worker `i` (a deliberate hard death; the monitor respawns it).
  void kill_worker(int i);

  /// Locate the doseopt_server binary: $DOSEOPT_SERVER_BIN, else next to
  /// this executable, else ../tools/ relative to it.  Throws when no
  /// executable candidate exists.
  static std::string discover_server_bin();

 private:
  struct Worker {
    std::string socket;
    pid_t pid = -1;
    std::atomic<bool> alive{false};
    std::atomic<std::uint64_t> generation{0};
    std::atomic<std::uint64_t> respawns{0};
  };

  void spawn(Worker& worker);
  /// Ping-poll until the worker accepts; throws on timeout.
  void wait_ready(Worker& worker);
  void monitor_loop();

  SupervisorOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread monitor_;
  std::atomic<bool> running_{false};
  /// Serializes spawn/kill/reap transitions on worker pids.
  mutable std::mutex pids_mu_;
};

}  // namespace doseopt::fleet
