// Property tests for the blocked (multi-column) la kernels: every column
// of a blocked CSR product, transpose product or residual, and of a
// blocked dense factor
// solve, must be bitwise identical to the single-vector kernel run on that
// column alone — for every width up to kMaxRhsBlock, every kernel-thread
// count, rectangular shapes, empty rows and row subsets (those also
// against a frozen copy of the original row loop). The dense solves
// are also pinned to a frozen copy of the original row-oriented sweeps, so
// reordering a sweep's memory access can never move a bit unnoticed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "la/csr.h"
#include "la/dense.h"
#include "la/multivec.h"

namespace prom::la {
namespace {

bool same_bits(std::span<const real> a, std::span<const real> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real)) == 0;
}

/// Random sparse matrix with about `per_row` entries per row; roughly one
/// row in five is left empty.
Csr random_csr(Rng& rng, idx nrows, idx ncols, int per_row) {
  std::vector<Triplet> t;
  for (idx i = 0; i < nrows; ++i) {
    if (rng.next_below(5) == 0) continue;
    const int m = 1 + static_cast<int>(rng.next_below(2 * per_row));
    for (int e = 0; e < m; ++e) {
      t.push_back({i, static_cast<idx>(rng.next_below(ncols)),
                   2 * rng.next_real() - 1});
    }
  }
  return Csr::from_triplets(nrows, ncols, t);
}

MultiVec random_mv(Rng& rng, idx n, int k) {
  MultiVec v(n, k);
  for (int j = 0; j < k; ++j) {
    for (real& e : v.col(j)) e = 2 * rng.next_real() - 1;
  }
  return v;
}

/// Every output starts from the same sentinel, so rows a *_rows kernel
/// must leave untouched are compared too.
MultiVec sentinel_mv(idx n, int k) {
  MultiVec v(n, k);
  for (int j = 0; j < k; ++j) {
    std::fill(v.col(j).begin(), v.col(j).end(), 7.5);
  }
  return v;
}

/// The original single-vector row loop, frozen: the bits every CSR kernel
/// must keep.
std::vector<real> reference_spmv(const Csr& a, std::span<const real> x) {
  std::vector<real> y(static_cast<std::size_t>(a.nrows));
  for (idx i = 0; i < a.nrows; ++i) {
    real sum = 0;
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      sum += a.vals[k] * x[a.colidx[k]];
    }
    y[i] = sum;
  }
  return y;
}

TEST(BlockedCsrProperty, EveryColumnMatchesSingleVectorKernels) {
  Rng rng(0xB10C);
  for (const int threads : {1, 2, 8}) {
    common::set_kernel_threads(threads);
    // Row counts span one and several 256-row parallel chunks; the column
    // counts make most shapes rectangular.
    for (const idx nrows : {1, 7, 40, 300, 513, 700}) {
      const idx ncols = 1 + static_cast<idx>(rng.next_below(2 * nrows));
      const int per_row = 1 + static_cast<int>(rng.next_below(12));
      const Csr a = random_csr(rng, nrows, ncols, per_row);
      // A random row subset (possibly out of order) for the *_rows kernels.
      std::vector<idx> rows;
      for (idx i = 0; i < a.nrows; ++i) {
        if (rng.next_below(3) != 0) rows.push_back(i);
      }
      std::reverse(rows.begin(), rows.begin() + rows.size() / 2);
      for (int k = 1; k <= kMaxRhsBlock; ++k) {
        SCOPED_TRACE(::testing::Message()
                     << threads << " threads, " << nrows << "x" << ncols
                     << ", k=" << k);
        const MultiVec x = random_mv(rng, a.ncols, k);
        const MultiVec b = random_mv(rng, a.nrows, k);
        MultiVec y = sentinel_mv(a.nrows, k), r = sentinel_mv(a.nrows, k);
        MultiVec ys = sentinel_mv(a.nrows, k), rs = sentinel_mv(a.nrows, k);
        a.spmv(x, y);
        a.residual(b, x, r);
        a.spmv_rows(x, ys, rows);
        a.residual_rows(b, x, rs, rows);
        for (int j = 0; j < k; ++j) {
          const std::vector<real> ref = reference_spmv(a, x.col(j));
          std::vector<real> y1(ref.size(), 7.5), r1(ref.size(), 7.5);
          a.spmv(x.col(j), y1);
          a.residual(b.col(j), x.col(j), r1);
          ASSERT_TRUE(same_bits(y1, ref)) << "spmv, column " << j;
          ASSERT_TRUE(same_bits(y.col(j), y1)) << "spmv, column " << j;
          ASSERT_TRUE(same_bits(r.col(j), r1)) << "residual, column " << j;
          // The row-subset kernels against the frozen row loop: listed
          // rows carry its bits (b - ref for the residual), the rest keep
          // the sentinel. The k=1 block of one vector must agree too.
          std::vector<real> ys1(ref.size(), 7.5), rs1(ref.size(), 7.5);
          a.spmv_rows(x.col(j), ys1, rows);
          a.residual_rows(b.col(j), x.col(j), rs1, rows);
          ASSERT_TRUE(same_bits(ys.col(j), ys1)) << "spmv_rows, column " << j;
          ASSERT_TRUE(same_bits(rs.col(j), rs1))
              << "residual_rows, column " << j;
          std::vector<real> ys_ref(ref.size(), 7.5), rs_ref(ref.size(), 7.5);
          for (const idx i : rows) {
            ys_ref[i] = ref[i];
            rs_ref[i] = b.col(j)[i] - ref[i];
          }
          ASSERT_TRUE(same_bits(ys1, ys_ref)) << "spmv_rows vs frozen loop";
          ASSERT_TRUE(same_bits(rs1, rs_ref))
              << "residual_rows vs frozen loop";
        }
      }
    }
  }
  common::set_kernel_threads(0);
}

// The transpose product takes a k-column block in one call; each column
// must carry the bits of the k=1 call on that column, both below and
// above the 2048-row scatter chunk (where one partial buffer serves every
// column and the chunk-order merge decides the bits).
TEST(BlockedCsrProperty, TransposeColumnsMatchSingleColumnCalls) {
  Rng rng(0x7A5E);
  constexpr int k = 3;
  for (const idx nrows : {300, 5000}) {
    const Csr a = random_csr(rng, nrows, nrows / 2 + 3, 6);
    const MultiVec x = random_mv(rng, a.nrows, k);
    for (const int threads : {1, 2, 8}) {
      common::set_kernel_threads(threads);
      SCOPED_TRACE(::testing::Message()
                   << threads << " threads, " << nrows << " rows");
      MultiVec y = sentinel_mv(a.ncols, k);
      a.spmv_transpose(x, y);
      for (int j = 0; j < k; ++j) {
        std::vector<real> y1(static_cast<std::size_t>(a.ncols), 7.5);
        a.spmv_transpose(x.col(j), y1);
        ASSERT_TRUE(same_bits(y.col(j), y1))
            << "spmv_transpose, column " << j;
      }
    }
  }
  common::set_kernel_threads(0);
}

TEST(ColBlockView, ConversionsAddressTheSameStorage) {
  MultiVec m(5, 3);
  const BlockRef all = m;
  EXPECT_EQ(all.data(), m.data());
  EXPECT_EQ(all.rows(), 5);
  EXPECT_EQ(all.cols(), 3);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(all.col_data(j), m.col_data(j));
    EXPECT_EQ(all.col(j).data(), m.col(j).data());
    EXPECT_EQ(all.col(j).size(), m.col(j).size());
  }
  const MultiVec& cm = m;
  const BlockCRef call = cm;
  EXPECT_EQ(call.data(), m.data());
  EXPECT_EQ(call.cols(), 3);
  const BlockCRef from_mutable = all;
  EXPECT_EQ(from_mutable.col_data(2), m.col_data(2));

  std::vector<real> v(7);
  const std::span<real> s(v);
  const BlockRef one = s;
  EXPECT_EQ(one.data(), v.data());
  EXPECT_EQ(one.rows(), 7);
  EXPECT_EQ(one.cols(), 1);
  EXPECT_EQ(one.col(0).data(), v.data());
  const BlockCRef cone = std::span<const real>(v);
  EXPECT_EQ(cone.col_data(0), v.data());
  const BlockRef from_vector = v;
  EXPECT_EQ(from_vector.data(), v.data());
  EXPECT_EQ(from_vector.rows(), 7);

  // Writes through a view land in the viewed storage.
  all.col(1)[4] = 2.5;
  EXPECT_EQ(m.col(1)[4], 2.5);
  one.col(0)[6] = -1.0;
  EXPECT_EQ(v[6], -1.0);
}

// ---------------------------------------------------------------------------
// Dense factors: frozen copies of the original factorizations and their
// row-oriented solves.

struct FrozenLdlt {
  idx n;
  std::vector<real> l, d;  // column-major unit lower L, diagonal D
  real& lij(idx i, idx j) { return l[static_cast<std::size_t>(j) * n + i]; }

  explicit FrozenLdlt(const DenseMatrix& a)
      : n(a.rows()), l(static_cast<std::size_t>(n) * n, 0), d(n, 0) {
    std::vector<real> w(n);
    for (idx j = 0; j < n; ++j) {
      for (idx k = 0; k < j; ++k) w[k] = lij(j, k) * d[k];
      real dj = a(j, j);
      for (idx k = 0; k < j; ++k) dj -= lij(j, k) * w[k];
      d[j] = dj;
      lij(j, j) = 1;
      for (idx i = j + 1; i < n; ++i) {
        real v = a(i, j);
        for (idx k = 0; k < j; ++k) v -= lij(i, k) * w[k];
        lij(i, j) = v / dj;
      }
    }
  }

  std::vector<real> solve(std::span<const real> b) {
    std::vector<real> x(n);
    for (idx i = 0; i < n; ++i) {
      real yi = b[i];
      for (idx k = 0; k < i; ++k) yi -= lij(i, k) * x[k];
      x[i] = yi;
    }
    for (idx i = 0; i < n; ++i) x[i] /= d[i];
    for (idx i = n - 1; i >= 0; --i) {
      real xi = x[i];
      for (idx k = i + 1; k < n; ++k) xi -= lij(k, i) * x[k];
      x[i] = xi;
    }
    return x;
  }
};

struct FrozenLu {
  DenseMatrix lu;
  std::vector<idx> piv;

  explicit FrozenLu(const DenseMatrix& a) : lu(a), piv(a.rows()) {
    const idx n = a.rows();
    for (idx k = 0; k < n; ++k) {
      idx p = k;
      real pmax = std::fabs(lu(k, k));
      for (idx i = k + 1; i < n; ++i) {
        if (std::fabs(lu(i, k)) > pmax) {
          pmax = std::fabs(lu(i, k));
          p = i;
        }
      }
      piv[k] = p;
      if (p != k) {
        for (idx j = 0; j < n; ++j) std::swap(lu(k, j), lu(p, j));
      }
      for (idx i = k + 1; i < n; ++i) {
        const real lik = lu(i, k) / lu(k, k);
        lu(i, k) = lik;
        for (idx j = k + 1; j < n; ++j) lu(i, j) -= lik * lu(k, j);
      }
    }
  }

  std::vector<real> solve(std::span<const real> b) const {
    const idx n = lu.rows();
    std::vector<real> x(b.begin(), b.begin() + n);
    for (idx k = 0; k < n; ++k) {
      if (piv[k] != k) std::swap(x[k], x[piv[k]]);
    }
    for (idx i = 0; i < n; ++i) {
      real yi = x[i];
      for (idx k = 0; k < i; ++k) yi -= lu(i, k) * x[k];
      x[i] = yi;
    }
    for (idx i = n - 1; i >= 0; --i) {
      real xi = x[i];
      for (idx k = i + 1; k < n; ++k) xi -= lu(i, k) * x[k];
      x[i] = xi / lu(i, i);
    }
    return x;
  }
};

/// Symmetric and strictly diagonally dominant, hence SPD.
DenseMatrix random_spd(Rng& rng, idx n) {
  DenseMatrix a(n, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = j + 1; i < n; ++i) a(i, j) = a(j, i) = rng.next_real() - 0.5;
    a(j, j) = n;
  }
  return a;
}

/// Dense and unstructured, so partial pivoting swaps rows.
DenseMatrix random_general(Rng& rng, idx n) {
  DenseMatrix a(n, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) a(i, j) = 2 * rng.next_real() - 1;
  }
  return a;
}

/// Runs solve_mv at every width 1..8 with a padded leading dimension, out
/// of place and in place, and checks each column — and the untouched
/// padding — against the frozen solve; `solve` must match too.
template <class Factor, class Frozen>
void check_factor(Rng& rng, const Factor& f, Frozen& frozen, idx n) {
  const idx ld = n + 3;
  for (int k = 1; k <= 8; ++k) {
    SCOPED_TRACE(::testing::Message() << "n=" << n << ", k=" << k);
    std::vector<real> b(static_cast<std::size_t>(ld) * k);
    for (real& v : b) v = 2 * rng.next_real() - 1;
    std::vector<real> x(b.size(), 7.5);
    std::vector<real> in_place = b;
    f.solve_mv(b, x, k, ld);
    f.solve_mv(in_place, in_place, k, ld);
    for (int j = 0; j < k; ++j) {
      const std::size_t off = static_cast<std::size_t>(j) * ld;
      const std::span<const real> bj(b.data() + off, n);
      const std::vector<real> ref = frozen.solve(bj);
      ASSERT_TRUE(same_bits({x.data() + off, std::size_t(n)}, ref))
          << "column " << j;
      ASSERT_TRUE(same_bits({in_place.data() + off, std::size_t(n)}, ref))
          << "in place, column " << j;
      for (idx p = n; p < ld; ++p) {
        ASSERT_EQ(x[off + p], 7.5) << "padding written";
        ASSERT_EQ(in_place[off + p], b[off + p]) << "padding written";
      }
      if (k == 1) {
        std::vector<real> x1(n);
        f.solve(bj, x1);
        ASSERT_TRUE(same_bits(x1, ref)) << "solve";
      }
    }
  }
}

TEST(BlockedDenseProperty, LdltSolveMvMatchesFrozenRowSweeps) {
  Rng rng(0x1D17);
  for (const idx n : {1, 2, 40, 167, 587}) {
    const DenseMatrix a = random_spd(rng, n);
    const DenseLdlt f(a);
    ASSERT_TRUE(f.ok());
    FrozenLdlt frozen(a);
    check_factor(rng, f, frozen, n);
  }
}

TEST(BlockedDenseProperty, LuSolveMvMatchesFrozenRowSweeps) {
  Rng rng(0x10F);
  for (const idx n : {1, 2, 40, 167, 587}) {
    const DenseMatrix a = random_general(rng, n);
    const DenseLu f(a);
    ASSERT_TRUE(f.ok());
    const FrozenLu frozen(a);
    check_factor(rng, f, frozen, n);
  }
}

TEST(BlockedDenseProperty, SolveMvRejectsShortStorage) {
  Rng rng(0x5);
  const DenseLdlt f(random_spd(rng, 4));
  std::vector<real> b(7), x(7);
  EXPECT_THROW(f.solve_mv(b, x, 2, 4), Error);  // needs 4 + 4 entries
  EXPECT_THROW(f.solve_mv(b, x, 1, 3), Error);  // ld < n
  EXPECT_NO_THROW(f.solve_mv(b, x, 1, 7));
}

}  // namespace
}  // namespace prom::la
