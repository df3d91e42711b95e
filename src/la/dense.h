// Dense vector helpers.
//
// Vectors are std::vector<double>; these free functions provide the handful
// of BLAS-1 style operations the solvers need, with explicit size checks.
//
// The fused_* kernels collapse the conjugate-gradient inner-loop vector
// passes (axpy + dot, preconditioner apply + dot) into single sweeps and
// reduce over *fixed-size chunks*: each chunk's partial sum is accumulated
// serially and the partials are combined in chunk order, so the result is
// bit-identical at any thread count (including the serial fallback).  They
// fan out over the deterministic ThreadPool only when one call does enough
// work to pay for the dispatch (kParallelMinFlops).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace doseopt {
class ThreadPool;
}

namespace doseopt::la {

using Vec = std::vector<double>;

/// The one fan-out bound of every la kernel (sparse products and fused
/// vector sweeps): a call runs on the pool only when it does at least this
/// many flops.  A fan-out wakes the workers and waits for them: 17-189 us
/// at 4 lanes on a shared 4-core host, against 0.4-0.9 ns per flop of
/// serial SpMV, so four lanes break even at 27k-347k flops, median 65k
/// over 15 runs (EXPERIMENTS.md).  The bound sits above 13 of those 15,
/// and every product of the full AES-65 QP (<= 50k flops) stays serial.
/// Which kernels fan out never changes a result: chunk sizes and
/// accumulation orders do not depend on it.
inline constexpr std::size_t kParallelMinFlops = std::size_t{1} << 18;

/// True when a kernel doing `flops` flops should fan out over `pool`.
bool use_pool(std::size_t flops, const ThreadPool& pool);

/// Dot product. Requires equal sizes.
double dot(const Vec& a, const Vec& b);

/// Euclidean norm.
double norm2(const Vec& a);

/// Infinity norm.
double norm_inf(const Vec& a);

/// y += alpha * x. Requires equal sizes.
void axpy(double alpha, const Vec& x, Vec& y);

/// x *= alpha.
void scale(double alpha, Vec& x);

/// Element-wise clamp of x into [lo, hi] (vectors of equal size).
void clamp(const Vec& lo, const Vec& hi, Vec& x);

/// max_i |a_i - b_i|.
double max_abs_diff(const Vec& a, const Vec& b);

// ---------------------------------------------------------------------------
// Fused CG kernels (deterministic fixed-chunk reductions; see file comment).
// `pool` selects the thread pool (nullptr = the process-global pool).
// ---------------------------------------------------------------------------

/// Deterministic dot product <a, b>.
double fused_dot(const Vec& a, const Vec& b, ThreadPool* pool = nullptr);

/// r = b - ax; returns <r, r>.  Single pass.
double fused_residual(const Vec& b, const Vec& ax, Vec& r,
                      ThreadPool* pool = nullptr);

/// The CG step update fused into one sweep: x += alpha * p,
/// r -= alpha * ap; returns the new <r, r>.
double fused_cg_update(double alpha, const Vec& p, const Vec& ap, Vec& x,
                       Vec& r, ThreadPool* pool = nullptr);

/// Jacobi preconditioner apply fused with the <r, z> product:
/// z_i = r_i / d_i (d_i <= 0 passes r_i through); returns <r, z>.
double fused_precond_dot(const Vec& r, const Vec& diag, Vec& z,
                         ThreadPool* pool = nullptr);

/// p = z + beta * p (the CG direction update).
void fused_xpby(const Vec& z, double beta, Vec& p, ThreadPool* pool = nullptr);

// ---------------------------------------------------------------------------
// Lane-panel kernels (batched structure-of-arrays STA).
//
// A "panel" is k contiguous doubles, one per batch lane; the batched timing
// engine stores every per-net/per-cell quantity as an array of such panels
// so one graph traversal times k Monte-Carlo dies at once.  Each kernel is
// a dependence-free lane loop, defined inline so call sites with a
// compile-time k fully unroll and vectorize, whose
// per-lane arithmetic matches the scalar timer's expressions exactly --
// max/min use std::max/std::min operand order -- so lane results stay
// bitwise-equal to a scalar pass.
// ---------------------------------------------------------------------------

/// p[i] = v.
inline void lane_fill(int k, double v, double* p) {
  for (int i = 0; i < k; ++i) p[i] = v;
}

/// out[i] = a[i] + b[i].
inline void lane_add(int k, const double* a, const double* b, double* out) {
  for (int i = 0; i < k; ++i) out[i] = a[i] + b[i];
}

/// y[i] = alpha * x[i] + beta * y[i] (batched axpby).
inline void lane_axpby(int k, double alpha, const double* x, double beta,
                       double* y) {
  for (int i = 0; i < k; ++i) y[i] = alpha * x[i] + beta * y[i];
}

/// acc[i] = max(acc[i], x[i]).
inline void lane_max_into(int k, const double* x, double* acc) {
  for (int i = 0; i < k; ++i) acc[i] = std::max(acc[i], x[i]);
}

/// acc[i] = min(acc[i], x[i]).
inline void lane_min_into(int k, const double* x, double* acc) {
  for (int i = 0; i < k; ++i) acc[i] = std::min(acc[i], x[i]);
}

/// acc[i] = max(acc[i], a[i] + b[i]) -- the fused arrival-plus-wire
/// reduction of the forward timing kernel.
inline void lane_add_max_into(int k, const double* a, const double* b,
                              double* acc) {
  for (int i = 0; i < k; ++i) acc[i] = std::max(acc[i], a[i] + b[i]);
}

/// acc[i] = min(acc[i], a[i] + b[i]).
inline void lane_add_min_into(int k, const double* a, const double* b,
                              double* acc) {
  for (int i = 0; i < k; ++i) acc[i] = std::min(acc[i], a[i] + b[i]);
}

/// acc[i] += p[i]; the batched checksum reduction the lane-health validator
/// runs over every panel (a NaN anywhere in a lane poisons that lane's
/// accumulator, unlike max/min reductions which drop NaN operands).
inline void lane_accumulate(int k, const double* p, double* acc) {
  for (int i = 0; i < k; ++i) acc[i] += p[i];
}

}  // namespace doseopt::la
