#include "la/dense.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/flops.h"
#include "la/multivec.h"

namespace prom::la {
namespace {

/// Checks that k columns at stride ld, each of length n, fit in b and x,
/// and copies B into X (a no-op when they share storage).
void load_columns(idx n, std::span<const real> b, std::span<real> x, int k,
                  idx ld) {
  PROM_CHECK(k >= 1 && ld >= n);
  const std::size_t need = static_cast<std::size_t>(k - 1) * ld + n;
  PROM_CHECK(b.size() >= need && x.size() >= need);
  if (b.data() == x.data()) return;
  for (int j = 0; j < k; ++j) {
    const std::size_t off = static_cast<std::size_t>(j) * ld;
    std::copy_n(b.data() + off, n, x.data() + off);
  }
}

// The width loops below carry `#pragma GCC unroll`: at -O2 GCC does not
// fully unroll a width-4 or width-8 loop on its own, which leaves the
// per-column values in memory instead of registers.

/// Pointers to columns [j0, j0 + K) of a block stored at stride ld.
template <int K>
std::array<real*, K> columns(real* x, int j0, idx ld) {
  std::array<real*, K> xs{};
  for (int j = 0; j < K; ++j) {
    xs[j] = x + static_cast<std::size_t>(j0 + j) * ld;
  }
  return xs;
}

/// Forward solve L y = b in place for K columns, with L unit lower
/// triangular and column-major (leading dimension n). Column-oriented:
/// once entry c is final, every entry below it subtracts its term, so
/// column c of L is read with stride 1, once for all K columns. Entry i
/// still subtracts its terms in ascending c order, one rounded multiply
/// and one rounded subtract each — the operations of the row-oriented
/// y_i = b_i - sum_c L_ic y_c, in the same order.
template <int K>
void forward_unit_lower(const real* l, idx n, const std::array<real*, K>& xs) {
  for (idx c = 0; c < n; ++c) {
    const real* lc = l + static_cast<std::size_t>(c) * n;
    real xc[K];
#pragma GCC unroll 8
    for (int j = 0; j < K; ++j) xc[j] = xs[j][c];
    for (idx i = c + 1; i < n; ++i) {
      const real v = lc[i];
#pragma GCC unroll 8
      for (int j = 0; j < K; ++j) xs[j][i] -= v * xc[j];
    }
  }
}

/// Backward solve in place for K columns: for i from n-1 down,
/// x_i -= T(r, i) x_r for r = i+1 .. n-1 in ascending order, then
/// x_i /= T(i, i) if Divide. T is column-major (leading dimension n), so
/// row i of the upper factor — column i of T — is read with stride 1.
/// The K columns' independent chains run together.
template <int K, bool Divide>
void backward_upper(const real* t, idx n, const std::array<real*, K>& xs) {
  for (idx i = n - 1; i >= 0; --i) {
    const real* ti = t + static_cast<std::size_t>(i) * n;
    real acc[K];
#pragma GCC unroll 8
    for (int j = 0; j < K; ++j) acc[j] = xs[j][i];
    for (idx r = i + 1; r < n; ++r) {
      const real v = ti[r];
#pragma GCC unroll 8
      for (int j = 0; j < K; ++j) acc[j] -= v * xs[j][r];
    }
#pragma GCC unroll 8
    for (int j = 0; j < K; ++j) xs[j][i] = Divide ? acc[j] / ti[i] : acc[j];
  }
}

}  // namespace

void DenseMatrix::matvec(std::span<const real> x, std::span<real> y) const {
  PROM_CHECK(static_cast<idx>(x.size()) == cols_ &&
             static_cast<idx>(y.size()) == rows_);
  for (idx i = 0; i < rows_; ++i) y[i] = 0;
  for (idx j = 0; j < cols_; ++j) {
    const real xj = x[j];
    for (idx i = 0; i < rows_; ++i) y[i] += (*this)(i, j) * xj;
  }
  count_flops(2LL * rows_ * cols_);
}

DenseMatrix DenseMatrix::identity(idx n) {
  DenseMatrix m(n, n);
  for (idx i = 0; i < n; ++i) m(i, i) = 1;
  return m;
}

DenseLdlt::DenseLdlt(const DenseMatrix& a)
    : n_(a.rows()), l_(a.rows(), a.rows()), d_(a.rows(), real{0}) {
  PROM_CHECK(a.rows() == a.cols());
  const idx n = n_;
  // Column-by-column LDL^T using the lower triangle of `a`.
  std::vector<real> w(n);  // workspace: column j of L*D
  for (idx j = 0; j < n; ++j) {
    for (idx k = 0; k < j; ++k) w[k] = l_(j, k) * d_[k];
    real dj = a(j, j);
    for (idx k = 0; k < j; ++k) dj -= l_(j, k) * w[k];
    if (!(std::isfinite(dj)) || dj <= real{0}) {
      ok_ = false;
      return;
    }
    d_[j] = dj;
    l_(j, j) = 1;
    for (idx i = j + 1; i < n; ++i) {
      real lij = a(i, j);
      for (idx k = 0; k < j; ++k) lij -= l_(i, k) * w[k];
      l_(i, j) = lij / dj;
    }
  }
  count_flops(n * static_cast<std::int64_t>(n) * n / 3);
  ok_ = true;
}

void DenseLdlt::solve(std::span<const real> b, std::span<real> x) const {
  PROM_CHECK(static_cast<idx>(b.size()) == n_ &&
             static_cast<idx>(x.size()) == n_);
  solve_mv(b, x, 1, n_);
}

void DenseLdlt::solve_mv(std::span<const real> b, std::span<real> x, int k,
                         idx ld) const {
  PROM_CHECK_MSG(ok_, "DenseLdlt::solve on a failed factorization");
  const idx n = n_;
  load_columns(n, b, x, k, ld);
  const real* l = l_.data().data();
  for_width_chunks(k, [&](auto width, int j0) {
    constexpr int K = decltype(width)::value;
    const auto xs = columns<K>(x.data(), j0, ld);
    // Forward solve L y = b.
    forward_unit_lower<K>(l, n, xs);
    // Diagonal solve D z = y.
    for (int j = 0; j < K; ++j) {
      for (idx i = 0; i < n; ++i) xs[j][i] /= d_[i];
    }
    // Backward solve L^T x = z: row i of L^T is column i of L.
    backward_upper<K, false>(l, n, xs);
  });
  count_flops(2LL * n * n * k);
}

DenseLu::DenseLu(const DenseMatrix& a)
    : n_(a.rows()), lu_(a), piv_(static_cast<std::size_t>(a.rows())) {
  PROM_CHECK(a.rows() == a.cols());
  const idx n = n_;
  for (idx k = 0; k < n; ++k) {
    // Partial pivoting: largest magnitude in column k at or below the
    // diagonal.
    idx p = k;
    real pmax = std::fabs(lu_(k, k));
    for (idx i = k + 1; i < n; ++i) {
      const real v = std::fabs(lu_(i, k));
      if (v > pmax) {
        pmax = v;
        p = i;
      }
    }
    piv_[k] = p;
    if (!(std::isfinite(pmax)) || pmax == real{0}) {
      ok_ = false;
      return;
    }
    if (p != k) {
      for (idx j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(p, j));
    }
    const real pivot = lu_(k, k);
    for (idx i = k + 1; i < n; ++i) {
      const real lik = lu_(i, k) / pivot;
      lu_(i, k) = lik;
      for (idx j = k + 1; j < n; ++j) lu_(i, j) -= lik * lu_(k, j);
    }
  }
  ut_ = DenseMatrix(n, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i <= j; ++i) ut_(j, i) = lu_(i, j);
  }
  count_flops(2LL * n * n * n / 3);
  ok_ = true;
}

void DenseLu::solve(std::span<const real> b, std::span<real> x) const {
  PROM_CHECK(static_cast<idx>(b.size()) == n_ &&
             static_cast<idx>(x.size()) == n_);
  solve_mv(b, x, 1, n_);
}

void DenseLu::solve_mv(std::span<const real> b, std::span<real> x, int k,
                       idx ld) const {
  PROM_CHECK_MSG(ok_, "DenseLu::solve on a failed factorization");
  const idx n = n_;
  load_columns(n, b, x, k, ld);
  for_width_chunks(k, [&](auto width, int j0) {
    constexpr int K = decltype(width)::value;
    const auto xs = columns<K>(x.data(), j0, ld);
    // Apply the pivot row swaps in factorization order.
    for (int j = 0; j < K; ++j) {
      for (idx p = 0; p < n; ++p) {
        if (piv_[p] != p) std::swap(xs[j][p], xs[j][piv_[p]]);
      }
    }
    // Forward solve L y = P b (unit diagonal).
    forward_unit_lower<K>(lu_.data().data(), n, xs);
    // Backward solve U x = y, reading U by rows from its transpose.
    backward_upper<K, true>(ut_.data().data(), n, xs);
  });
  count_flops(2LL * n * n * k);
}

}  // namespace prom::la
