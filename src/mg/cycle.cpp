#include "mg/cycle.h"

namespace prom::mg {

void HierarchyCycleView::coarse_solve(la::BlockCRef b, la::BlockRef x) const {
  const MgLevel& lv = h->level(h->num_levels() - 1);
  if (lv.sparse_direct == nullptr && lv.direct == nullptr &&
      lv.direct_lu == nullptr) {
    // Single-level hierarchy: a few smoothing steps stand in.
    for (int s = 0; s < 4; ++s) lv.smoother->smooth(b, x);
    return;
  }
  for (int j = 0; j < b.cols(); ++j) {
    if (lv.sparse_direct != nullptr) {
      lv.sparse_direct->solve(b.col(j), x.col(j));
    } else if (lv.direct != nullptr) {
      lv.direct->solve(b.col(j), x.col(j));
    } else {
      lv.direct_lu->solve(b.col(j), x.col(j));
    }
  }
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
