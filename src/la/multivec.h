// Column-blocked multi-vector: k right-hand sides (or iterates) over one
// operator, stored column-major so each column is a contiguous span.
//
// ColBlock is the non-owning view the whole solve phase is written over —
// the sparse kernels, the halo exchange, the smoothers, the multigrid
// cycles and PCG: a MultiVec converts to it as k columns, and a single
// contiguous vector (std::span, std::vector) as one column, so each body
// serves both shapes and k=1 is simply its narrowest instance. The
// determinism contract: column j of any blocked operation is bitwise
// identical to the same operation run on that column alone.
#pragma once

#include <array>
#include <cstddef>
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

/// Non-owning column-major view of `cols` columns of `rows` entries each;
/// column j starts at data + j * rows. T is `real` (BlockRef) or
/// `const real` (BlockCRef). Constness is the element's, not the view's:
/// copying a view never copies data.
template <class T>
class ColBlock {
 public:
  ColBlock(T* data, idx rows, int cols)
      : data_(data), rows_(rows), cols_(cols) {}

  /// One column over any contiguous range (std::span, std::vector).
  template <class R>
    requires std::is_convertible_v<R&&, std::span<T>>
  ColBlock(R&& r) {
    const std::span<T> s(r);
    data_ = s.data();
    rows_ = static_cast<idx>(s.size());
    cols_ = 1;
  }

  /// A mutable view reads as a const one.
  template <class U>
    requires(std::is_const_v<T> && std::is_same_v<U, std::remove_const_t<T>>)
  ColBlock(const ColBlock<U>& o)
      : data_(o.data()), rows_(o.rows()), cols_(o.cols()) {}

  idx rows() const { return rows_; }
  int cols() const { return cols_; }
  T* data() const { return data_; }
  T* col_data(int j) const {
    return data_ + static_cast<std::size_t>(j) * rows_;
  }
  std::span<T> col(int j) const {
    return {col_data(j), static_cast<std::size_t>(rows_)};
  }

 private:
  T* data_ = nullptr;
  idx rows_ = 0;
  int cols_ = 0;
};

using BlockRef = ColBlock<real>;
using BlockCRef = ColBlock<const real>;

/// The column pointers of a block (at most kMaxRhsBlock columns), in the
/// form the row kernels take them.
template <class T>
std::array<T*, kMaxRhsBlock> col_ptrs(ColBlock<T> v) {
  PROM_CHECK(v.cols() <= kMaxRhsBlock);
  std::array<T*, kMaxRhsBlock> p{};
  for (int j = 0; j < v.cols(); ++j) p[j] = v.col_data(j);
  return p;
}

class MultiVec {
 public:
  MultiVec() = default;
  MultiVec(idx n, int k) { resize(n, k); }
  /// A copy of the block's columns.
  explicit MultiVec(BlockCRef v)
      : n_(v.rows()),
        k_(v.cols()),
        data_(v.data(), v.data() + static_cast<std::size_t>(v.rows()) *
                                       static_cast<std::size_t>(v.cols())) {}

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

  /// All k columns as a view (the storage, not a copy).
  operator BlockRef() { return {data(), n_, k_}; }
  operator BlockCRef() const { return {data(), n_, k_}; }

 private:
  idx n_ = 0;
  int k_ = 0;
  std::vector<real> data_;
};

}  // namespace prom::la
