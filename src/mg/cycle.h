// Serial instantiation of the backend-generic multigrid cycles
// (mg/cycle_any.h): HierarchyCycleView adapts mg::Hierarchy to the
// CycleView concept, and vcycle / fmg_cycle keep their original
// signatures as thin wrappers.
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "la/operator.h"
#include "mg/cycle_any.h"
#include "mg/hierarchy.h"

namespace prom::mg {

/// Adapts the serial Hierarchy (with built operators and smoothers) to the
/// generic cycle templates.
struct HierarchyCycleView {
  const Hierarchy* h;
  /// Apply level operators through their node-block (BAIJ) views when the
  /// hierarchy has them (Hierarchy::enable_bsr). Same bits as the scalar
  /// path — the blocked SpMV preserves the CSR accumulation order.
  bool use_bsr = false;
  /// Apply the finest level through its matrix-free element view when the
  /// hierarchy has one (Hierarchy::enable_mf); coarse levels always go
  /// through their assembled operators.
  bool use_mf = false;

  int num_levels() const { return h->num_levels(); }
  idx local_n(int l) const { return h->level(l).a.nrows; }
  int pre_smooth() const { return h->options().pre_smooth; }
  int post_smooth() const { return h->options().post_smooth; }
  void smooth(int l, la::BlockCRef b, la::BlockRef x) const {
    const MgLevel& lv = h->level(l);
    const la::CsrOperator a(lv.a);
    if (lv.smooth_rows.empty()) {
      lv.smoother.smooth(la::SerialBackend{}, a, b, x);
    } else {
      lv.smoother.smooth_rows(la::SerialBackend{}, a, lv.smooth_rows, b, x);
    }
  }
  void apply_a(int l, la::BlockCRef x, la::BlockRef y) const {
    const MgLevel& lv = h->level(l);
    if (use_mf && lv.a_mf != nullptr) {
      lv.a_mf->apply(x, y);
    } else if (use_bsr && lv.a_bsr != nullptr) {
      lv.a_bsr->apply(x, y);
    } else {
      lv.a.spmv(x, y);
    }
  }
  void restrict_to(int l, la::BlockCRef xf, la::BlockRef xc) const {
    h->level(l).r.spmv(xf, xc);
  }
  void prolong(int l, la::BlockCRef xc, la::BlockRef xf) const {
    h->level(l).r.spmv_transpose(xc, xf);
  }
  void coarse_solve(la::BlockCRef b, la::BlockRef x) const;
};

/// One V-cycle at `level` for A_level x = b, improving x in place.
void vcycle(const Hierarchy& h, int level, std::span<const real> b,
            std::span<real> x);

/// One full multigrid cycle for A_0 x = b starting from zero; returns x.
std::vector<real> fmg_cycle(const Hierarchy& h, std::span<const real> b);

}  // namespace prom::mg
