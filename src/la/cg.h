// Preconditioned conjugate gradient for symmetric positive-definite operators
// given implicitly as matrix-vector products.  Used by the ADMM QP solver for
// its (P + sigma*I + rho*A^T A) x = b inner solves.
//
// The inner-loop vector work runs through the fused_* kernels of la/dense.h:
// single-pass axpy+dot and preconditioner-apply+dot sweeps with fixed-chunk
// reductions, so the solve is bit-identical at any thread count.
#pragma once

#include "common/function_ref.h"
#include "la/dense.h"

namespace doseopt::la {

/// Result of a CG solve.
struct CgResult {
  int iterations = 0;
  double residual_norm = 0.0;  ///< final ||b - Ax||_2
  bool converged = false;
};

/// Reusable scratch for conjugate_gradient: the four inner-loop vectors,
/// resized (never shrunk) per solve.  Callers that solve repeatedly -- the
/// ADMM x-update runs one CG per iteration -- keep one of these alive to
/// eliminate the per-solve allocations.
struct CgWorkspace {
  Vec r, z, p, ap;
};

/// Options for a CG solve.
struct CgOptions {
  int max_iterations = 500;
  double tolerance = 1e-9;  ///< relative: stop when ||r|| <= tol * ||b||
  ThreadPool* pool = nullptr;  ///< fused-kernel pool (nullptr = global)
};

/// Solve op(x) = b where op is SPD.  `x` holds the initial guess on entry and
/// the solution on exit.  `precond_diag` is the diagonal of a Jacobi
/// preconditioner (pass all-ones for unpreconditioned CG).  `workspace`
/// (optional) supplies the inner-loop vectors; pass nullptr to allocate
/// per call.  `op` is taken by non-owning reference (no allocation).
CgResult conjugate_gradient(FunctionRef<void(const Vec&, Vec&)> op,
                            const Vec& b, const Vec& precond_diag, Vec& x,
                            const CgOptions& options = {},
                            CgWorkspace* workspace = nullptr);

}  // namespace doseopt::la
