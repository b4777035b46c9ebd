#include "mg/cycle.h"

namespace prom::mg {

void HierarchyCycleView::coarse_solve(la::BlockCRef b, la::BlockRef x) const {
  const int l = h->num_levels() - 1;
  const MgLevel& lv = h->level(l);
  if (lv.direct == nullptr && lv.direct_lu == nullptr) {
    // Single-level hierarchy: a few smoothing steps stand in.
    for (int s = 0; s < 4; ++s) smooth(l, b, x);
    return;
  }
  solve_coarsest(lv.direct.get(), lv.direct_lu.get(), b, x);
}

void vcycle(const Hierarchy& h, int level, std::span<const real> b,
            std::span<real> x) {
  vcycle_any(HierarchyCycleView{&h}, level, b, x);
}

std::vector<real> fmg_cycle(const Hierarchy& h, std::span<const real> b) {
  std::vector<real> x(b.size());
  fmg_any(HierarchyCycleView{&h}, b, x);
  return x;
}

}  // namespace prom::mg
