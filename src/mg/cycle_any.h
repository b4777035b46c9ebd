// The single V-cycle / full-multigrid implementation, templated over a
// CycleView — a thin adapter exposing one multigrid hierarchy's levels as
// local-block operations. The serial mg::Hierarchy and the distributed
// dla::DistHierarchy both provide a view, so Figure 1's algorithm exists
// exactly once; only the level operations (smooth, SpMV, restriction,
// coarse solve) know whether they communicate.
#pragma once

#include <concepts>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/error.h"
#include "la/backend.h"
#include "la/multivec.h"
#include "la/vec.h"
#include "obs/trace.h"

namespace prom::mg {

enum class CycleKind : std::uint8_t { kV, kFmg };

/// What the cycle templates require of a hierarchy view. All vectors are
/// column blocks of the local blocks of level vectors (the whole vectors
/// on the serial view; a single vector is one column) and every level
/// operation serves all columns at once, column j bitwise equal to the
/// operation on that column alone. `restrict_to(l, xf, xc)` applies level
/// l's restriction R_l to a level l-1 block, `prolong(l, xc, xf)` applies
/// R_l^T (overwrite), and `coarse_solve` solves on the coarsest level.
template <class V>
concept CycleView = requires(const V& h, int l, la::BlockCRef c,
                             la::BlockRef m) {
  { h.num_levels() } -> std::convertible_to<int>;
  { h.local_n(l) } -> std::convertible_to<idx>;
  { h.pre_smooth() } -> std::convertible_to<int>;
  { h.post_smooth() } -> std::convertible_to<int>;
  h.smooth(l, c, m);
  h.apply_a(l, c, m);
  h.restrict_to(l, c, m);
  h.prolong(l, c, m);
  h.coarse_solve(c, m);
};

/// One V-cycle at `level` for A_level X = B on k columns, improving X in
/// place (Figure 1 of the paper: pre-smooth, restrict residual, recurse,
/// prolongate correction, post-smooth; direct solve on the coarsest grid).
/// Each level operation carries every column in one exchange, and the
/// per-column BLAS-1 updates run in the single-column order, so column j
/// is bitwise identical to the k=1 cycle of that column.
template <CycleView V>
void vcycle_any(const V& h, int level, la::BlockCRef b, la::BlockRef x) {
  const int k = b.cols();
  const idx n = h.local_n(level);
  PROM_CHECK(b.rows() == n && x.rows() == n && x.cols() == k);

  if (level + 1 == h.num_levels()) {
    const obs::Span span("mg.coarse_solve", level);
    h.coarse_solve(b, x);
    return;
  }

  {
    const obs::Span span("mg.smooth", level);
    for (int s = 0; s < h.pre_smooth(); ++s) h.smooth(level, b, x);
  }

  // Residual and its restriction.
  la::MultiVec r(n, k);
  {
    const obs::Span span("mg.residual", level);
    h.apply_a(level, x, r);
    la::subtract_from(b, r);
  }
  const idx nc = h.local_n(level + 1);
  la::MultiVec rc(nc, k);
  {
    const obs::Span span("mg.restrict", level);
    h.restrict_to(level + 1, r, rc);
  }

  // Coarse-grid correction.
  la::MultiVec xc(nc, k);
  vcycle_any(h, level + 1, rc, xc);

  // Prolongate (R^T) and add.
  {
    const obs::Span span("mg.prolong", level);
    la::MultiVec dx(n, k);
    h.prolong(level + 1, xc, dx);
    for (int j = 0; j < k; ++j) la::axpy(1, dx.col(j), x.col(j));
  }

  {
    const obs::Span span("mg.smooth", level);
    for (int s = 0; s < h.post_smooth(); ++s) h.smooth(level, b, x);
  }
}

/// One full multigrid cycle for A_0 X = B starting from zero, written to
/// x (which must not alias b): restrict B to every level, solve the
/// coarsest, then prolongate and V-cycle upward level by level.
template <CycleView V>
void fmg_any(const V& h, la::BlockCRef b, la::BlockRef x) {
  const int nl = h.num_levels();
  const int k = b.cols();
  // The right-hand side on every level; level 0's is b itself.
  std::vector<la::MultiVec> bs(static_cast<std::size_t>(nl));
  const auto rhs = [&](int l) { return l == 0 ? b : la::BlockCRef(bs[l]); };
  for (int l = 1; l < nl; ++l) {
    const obs::Span span("mg.restrict", l - 1);
    bs[l].resize(h.local_n(l), k);
    h.restrict_to(l, rhs(l - 1), bs[l]);
  }

  // Coarsest solve from zero, then work upward; level 0 lands in x.
  la::MultiVec xl(h.local_n(nl - 1), k);
  const la::BlockRef coarsest = nl == 1 ? x : la::BlockRef(xl);
  for (int j = 0; j < k; ++j) la::set_all(coarsest.col(j), 0);
  vcycle_any(h, nl - 1, rhs(nl - 1), coarsest);
  for (int l = nl - 2; l >= 0; --l) {
    la::MultiVec xf(l == 0 ? 0 : h.local_n(l), k);
    const la::BlockRef fine = l == 0 ? x : la::BlockRef(xf);
    {
      const obs::Span span("mg.prolong", l);
      h.prolong(l + 1, xl, fine);
    }
    vcycle_any(h, l, rhs(l), fine);
    if (l > 0) xl = std::move(xf);
  }
}

/// One cycle of the requested kind as a preconditioner application
/// Y = M^{-1} X on k columns (the MG-PCG preconditioner body on every
/// backend).
template <CycleView V>
void apply_cycle(const V& h, CycleKind kind, la::BlockCRef x, la::BlockRef y) {
  if (kind == CycleKind::kFmg) {
    fmg_any(h, x, y);
  } else {
    for (int j = 0; j < y.cols(); ++j) la::set_all(y.col(j), 0);
    vcycle_any(h, 0, x, y);
  }
}

}  // namespace prom::mg
