// Column-blocked multi-vector: k right-hand sides (or iterates) over one
// operator, stored column-major so each column is a contiguous span usable
// by every existing single-vector kernel. The blocked SpMM / halo / PCG
// paths operate on MultiVec under the determinism contract: column j of
// any blocked operation is bitwise identical to the single-vector kernel
// run on that column alone.
#pragma once

#include <span>
#include <type_traits>
#include <vector>

#include "common/config.h"
#include "common/error.h"

namespace prom::la {

/// Hard cap on the column count of a single blocked kernel call. Blocked
/// kernels keep one accumulator per column in a stack array of this size;
/// wider requests are chunked by the caller (app::SolveService honours
/// PROM_RHS_BLOCK <= kMaxRhsBlock).
inline constexpr int kMaxRhsBlock = 16;

/// Splits k columns into chunks of 8, 4, 2 and 1, in column order, and
/// calls `f(std::integral_constant<int, K>{}, j0)` for each chunk
/// [j0, j0 + K). Blocked kernels take K as a compile-time width so their
/// per-column accumulators live in registers; columns never interact, so
/// the split cannot change any column's bits.
template <class F>
void for_width_chunks(int k, const F& f) {
  int j = 0;
  for (; k - j >= 8; j += 8) f(std::integral_constant<int, 8>{}, j);
  if (k - j >= 4) {
    f(std::integral_constant<int, 4>{}, j);
    j += 4;
  }
  if (k - j >= 2) {
    f(std::integral_constant<int, 2>{}, j);
    j += 2;
  }
  if (k - j >= 1) f(std::integral_constant<int, 1>{}, j);
}

class MultiVec {
 public:
  MultiVec() = default;
  MultiVec(idx n, int k) { resize(n, k); }

  idx rows() const { return n_; }
  int cols() const { return k_; }

  /// Shapes to n x k and zero-fills every column. Never shrinks capacity,
  /// so reshaping to a previously-seen (or smaller) shape allocates
  /// nothing — the property the reusable solve workspaces rely on.
  void resize(idx n, int k) {
    PROM_CHECK(n >= 0 && k >= 0 && k <= kMaxRhsBlock);
    n_ = n;
    k_ = k;
    data_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(k),
                 real{0});
  }

  real* col_data(int j) {
    return data_.data() + static_cast<std::size_t>(j) * n_;
  }
  const real* col_data(int j) const {
    return data_.data() + static_cast<std::size_t>(j) * n_;
  }

  std::span<real> col(int j) {
    return {col_data(j), static_cast<std::size_t>(n_)};
  }
  std::span<const real> col(int j) const {
    return {col_data(j), static_cast<std::size_t>(n_)};
  }

  /// The full column-major storage (column j occupies [j*n, (j+1)*n)).
  real* data() { return data_.data(); }
  const real* data() const { return data_.data(); }

 private:
  idx n_ = 0;
  int k_ = 0;
  std::vector<real> data_;
};

}  // namespace prom::la
