// Fixed-size thread pool with a deterministic result contract.
//
// The pool runs index-addressed loops (`parallel_for`) over persistent
// worker threads.  Work distribution is dynamic (an atomic cursor hands out
// chunks), so *which* thread runs an index is non-deterministic -- callers
// must keep tasks slot-isolated: iteration i may read shared immutable
// state and write only result slot i, with the value depending only on i.
// Under that contract the output is bit-identical for any thread count,
// which is what keeps seeded Monte-Carlo sweeps and library
// characterization reproducible (a hard requirement of the experiment
// flow).
//
// The calling thread participates as lane 0; workers are lanes 1..N-1.  A
// `parallel_for` issued from inside a pool task runs inline on the calling
// lane (no nested fan-out), so composed parallel code cannot deadlock the
// pool.  Likewise, a loop submitted while another thread's loop occupies
// the workers runs inline on its own caller as lane 0.  `ThreadPool(1)`
// has no workers at all and degenerates to a plain serial loop, useful as
// the reference in determinism tests.
#pragma once

#include <cstddef>

#include "common/function_ref.h"

namespace doseopt {

class ThreadPool {
 public:
  /// `lanes` is the total worker count including the calling thread;
  /// `lanes <= 1` means no extra threads (serial execution).  0 selects
  /// the hardware concurrency.
  explicit ThreadPool(int lanes = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (calling thread + workers).
  int lane_count() const { return lane_count_; }

  /// Run fn(i) for i in [0, n).  Blocks until all iterations finish; the
  /// first exception thrown by any iteration is rethrown here (remaining
  /// chunks are abandoned).  `fn` is taken by non-owning reference, so a
  /// fan-out allocates nothing.
  void parallel_for(std::size_t n, FunctionRef<void(std::size_t)> fn);

  /// Run fn(lane, i) for i in [0, n), where `lane` in [0, lane_count()) is
  /// stable for the duration of the call -- use it to index per-lane
  /// scratch state (e.g. one TimingState per lane).  Iterations issued
  /// inline from a nested call all report the caller's chunk as lane 0 of
  /// the *inner* loop, which is safe because nested loops own their own
  /// per-lane state.
  void parallel_for_lane(std::size_t n,
                         FunctionRef<void(int, std::size_t)> fn);

  /// True when the current thread is already executing a pool task (from
  /// any pool); nested parallel loops detect this and run inline.
  static bool in_parallel_region();

  /// Process-wide shared pool.  Lane count comes from DOSEOPT_THREADS when
  /// set (>= 1), otherwise the hardware concurrency.
  static ThreadPool& global();

 private:
  struct Impl;
  Impl* impl_ = nullptr;  // null when lane_count_ == 1
  int lane_count_ = 1;
};

}  // namespace doseopt
