#include "la/cg.h"

#include <cmath>

#include "common/error.h"

namespace doseopt::la {

CgResult conjugate_gradient(FunctionRef<void(const Vec&, Vec&)> op,
                            const Vec& b, const Vec& precond_diag, Vec& x,
                            const CgOptions& options, CgWorkspace* workspace) {
  const std::size_t n = b.size();
  DOSEOPT_CHECK(x.size() == n, "cg: x size mismatch");
  DOSEOPT_CHECK(precond_diag.size() == n, "cg: preconditioner size mismatch");

  CgResult result;
  ThreadPool* pool = options.pool;
  CgWorkspace local;
  CgWorkspace& ws = workspace != nullptr ? *workspace : local;
  ws.r.resize(n);
  ws.z.resize(n);
  ws.p.resize(n);
  ws.ap.resize(n);
  Vec& r = ws.r;
  Vec& z = ws.z;
  Vec& p = ws.p;
  Vec& ap = ws.ap;

  op(x, ap);
  double r_norm2 = fused_residual(b, ap, r, pool);

  const double b_norm = norm2(b);
  const double stop = options.tolerance * (b_norm > 0.0 ? b_norm : 1.0);
  const double stop2 = stop * stop;

  if (r_norm2 <= stop2) {
    result.converged = true;
    result.residual_norm = std::sqrt(r_norm2);
    return result;
  }

  double rz = fused_precond_dot(r, precond_diag, z, pool);
  p = z;

  for (int it = 0; it < options.max_iterations; ++it) {
    op(p, ap);
    const double pap = fused_dot(p, ap, pool);
    if (pap <= 0.0) break;  // loss of positive-definiteness / stagnation
    const double alpha = rz / pap;
    r_norm2 = fused_cg_update(alpha, p, ap, x, r, pool);
    result.iterations = it + 1;
    if (r_norm2 <= stop2) {
      result.converged = true;
      break;
    }
    const double rz_new = fused_precond_dot(r, precond_diag, z, pool);
    const double beta = rz_new / rz;
    rz = rz_new;
    fused_xpby(z, beta, p, pool);
  }
  result.residual_norm = std::sqrt(r_norm2);
  return result;
}

}  // namespace doseopt::la
