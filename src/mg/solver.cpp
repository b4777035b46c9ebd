#include "mg/solver.h"

#include "common/error.h"
#include "la/krylov_any.h"

namespace prom::mg {
namespace {

/// The fine-level operator in `format` (the node-block and matrix-free
/// views exist only once enabled on the hierarchy).
const la::LinearOperator& fine_operator(const Hierarchy& h,
                                        MatrixFormat format,
                                        const la::CsrOperator& csr) {
  if (format == MatrixFormat::kBsr3) {
    PROM_CHECK_MSG(h.level(0).a_bsr != nullptr,
                   "MatrixFormat::kBsr3 requires Hierarchy::enable_bsr()");
    return *h.level(0).a_bsr;
  }
  if (format == MatrixFormat::kMf) {
    PROM_CHECK_MSG(h.level(0).a_mf != nullptr,
                   "MatrixFormat::kMf requires Hierarchy::enable_mf()");
    return *h.level(0).a_mf;
  }
  return csr;
}

}  // namespace

void MgPreconditioner::apply(la::BlockCRef x, la::BlockRef y) const {
  const bool use_bsr = format_ == MatrixFormat::kBsr3;
  const bool use_mf = format_ == MatrixFormat::kMf;
  apply_cycle(HierarchyCycleView{h_, use_bsr, use_mf}, kind_, x, y);
}

std::vector<la::KrylovResult> mg_pcg_solve_mv(const Hierarchy& h,
                                              la::BlockCRef b, la::BlockRef x,
                                              const MgSolveOptions& opts,
                                              la::KrylovWorkspace* ws) {
  const MgPreconditioner precond(h, opts.cycle, opts.format);
  const la::LinearOperator* m = &precond;
  const la::CsrOperator csr(h.level(0).a);
  return la::pcg_any(la::SerialBackend{}, fine_operator(h, opts.format, csr),
                     m, b, x, to_krylov_options(opts), ws);
}

la::KrylovResult mg_pcg_solve(const Hierarchy& h, std::span<const real> b,
                              std::span<real> x, const MgSolveOptions& opts) {
  return mg_pcg_solve_mv(h, b, x, opts).front();
}

la::KrylovResult mg_krylov_solve(const Hierarchy& h, std::span<const real> b,
                                 std::span<real> x,
                                 const MgSolveOptions& opts) {
  if (opts.krylov == la::KrylovKind::kPcg) {
    return mg_pcg_solve(h, b, x, opts);
  }
  const MgPreconditioner precond(h, opts.cycle, opts.format);
  const la::CsrOperator csr(h.level(0).a);
  const la::LinearOperator& a = fine_operator(h, opts.format, csr);
  if (opts.krylov == la::KrylovKind::kGmres) {
    return la::gmres(a, &precond, b, x, to_gmres_options(opts));
  }
  return la::bicgstab(a, &precond, b, x, to_krylov_options(opts));
}

}  // namespace prom::mg
