#include "la/dense.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/thread_pool.h"

namespace doseopt::la {

bool use_pool(std::size_t flops, const ThreadPool& pool) {
  return flops >= kParallelMinFlops && pool.lane_count() > 1;
}

double dot(const Vec& a, const Vec& b) {
  DOSEOPT_CHECK(a.size() == b.size(), "dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(const Vec& a) { return std::sqrt(dot(a, a)); }

double norm_inf(const Vec& a) {
  double m = 0.0;
  for (double v : a) m = std::max(m, std::abs(v));
  return m;
}

void axpy(double alpha, const Vec& x, Vec& y) {
  DOSEOPT_CHECK(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(double alpha, Vec& x) {
  for (double& v : x) v *= alpha;
}

void clamp(const Vec& lo, const Vec& hi, Vec& x) {
  DOSEOPT_CHECK(lo.size() == x.size() && hi.size() == x.size(),
                "clamp: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::clamp(x[i], lo[i], hi[i]);
}

double max_abs_diff(const Vec& a, const Vec& b) {
  DOSEOPT_CHECK(a.size() == b.size(), "max_abs_diff: size mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

namespace {

// The chunk size is part of the numerical contract: partial sums are
// accumulated per chunk and combined in chunk order, so it must not depend
// on the thread count.
constexpr std::size_t kChunk = 2048;

/// Runs kernel(begin, end) for every fixed-size chunk of [0, n), each chunk
/// writing only its own partial slot, then returns the serial in-order sum
/// of the partials.  `flops_per_elem` sizes the call for use_pool.
template <typename Kernel>
double chunked_reduce(std::size_t n, std::size_t flops_per_elem,
                      ThreadPool* pool, const Kernel& kernel) {
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  if (chunks <= 1) return n == 0 ? 0.0 : kernel(0, n);

  Vec partial(chunks, 0.0);
  auto chunk_task = [&](std::size_t c) {
    const std::size_t lo = c * kChunk;
    partial[c] = kernel(lo, std::min(lo + kChunk, n));
  };
  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::global();
  if (use_pool(n * flops_per_elem, tp)) {
    tp.parallel_for(chunks, chunk_task);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) chunk_task(c);
  }
  double s = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) s += partial[c];
  return s;
}

/// Element-wise sweep with the same chunking/dispatch policy (no reduction,
/// so chunking only bounds the task granularity).
template <typename Kernel>
void chunked_sweep(std::size_t n, std::size_t flops_per_elem,
                   ThreadPool* pool, const Kernel& kernel) {
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  if (chunks <= 1) {
    if (n > 0) kernel(0, n);
    return;
  }
  auto chunk_task = [&](std::size_t c) {
    const std::size_t lo = c * kChunk;
    kernel(lo, std::min(lo + kChunk, n));
  };
  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::global();
  if (use_pool(n * flops_per_elem, tp)) {
    tp.parallel_for(chunks, chunk_task);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) chunk_task(c);
  }
}

}  // namespace

double fused_dot(const Vec& a, const Vec& b, ThreadPool* pool) {
  DOSEOPT_CHECK(a.size() == b.size(), "fused_dot: size mismatch");
  return chunked_reduce(a.size(), 2, pool,
                        [&](std::size_t lo, std::size_t hi) {
                          double s = 0.0;
                          for (std::size_t i = lo; i < hi; ++i)
                            s += a[i] * b[i];
                          return s;
                        });
}

double fused_residual(const Vec& b, const Vec& ax, Vec& r, ThreadPool* pool) {
  DOSEOPT_CHECK(b.size() == ax.size() && b.size() == r.size(),
                "fused_residual: size mismatch");
  return chunked_reduce(b.size(), 3, pool,
                        [&](std::size_t lo, std::size_t hi) {
                          double s = 0.0;
                          for (std::size_t i = lo; i < hi; ++i) {
                            const double v = b[i] - ax[i];
                            r[i] = v;
                            s += v * v;
                          }
                          return s;
                        });
}

double fused_cg_update(double alpha, const Vec& p, const Vec& ap, Vec& x,
                       Vec& r, ThreadPool* pool) {
  DOSEOPT_CHECK(p.size() == x.size() && ap.size() == r.size() &&
                    p.size() == r.size(),
                "fused_cg_update: size mismatch");
  return chunked_reduce(p.size(), 6, pool,
                        [&](std::size_t lo, std::size_t hi) {
                          double s = 0.0;
                          for (std::size_t i = lo; i < hi; ++i) {
                            x[i] += alpha * p[i];
                            const double v = r[i] - alpha * ap[i];
                            r[i] = v;
                            s += v * v;
                          }
                          return s;
                        });
}

double fused_precond_dot(const Vec& r, const Vec& diag, Vec& z,
                         ThreadPool* pool) {
  DOSEOPT_CHECK(r.size() == diag.size() && r.size() == z.size(),
                "fused_precond_dot: size mismatch");
  return chunked_reduce(r.size(), 3, pool,
                        [&](std::size_t lo, std::size_t hi) {
                          double s = 0.0;
                          for (std::size_t i = lo; i < hi; ++i) {
                            const double d = diag[i];
                            const double v = d > 0.0 ? r[i] / d : r[i];
                            z[i] = v;
                            s += r[i] * v;
                          }
                          return s;
                        });
}

void fused_xpby(const Vec& z, double beta, Vec& p, ThreadPool* pool) {
  DOSEOPT_CHECK(z.size() == p.size(), "fused_xpby: size mismatch");
  chunked_sweep(z.size(), 2, pool, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) p[i] = z[i] + beta * p[i];
  });
}

}  // namespace doseopt::la
