// Property-based randomized tests for the CSR algebra (ISSUE 1 satellite):
// seeded-RNG triplet soups checked against dense references. These are the
// hardening layer under the threaded kernel work — every property must
// hold for arbitrary sparsity patterns, duplicate entries, empty rows and
// rectangular shapes, independent of how the kernels are parallelized.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "la/csr.h"

namespace prom::la {
namespace {

struct RandomProblem {
  idx nrows;
  idx ncols;
  std::vector<Triplet> triplets;
  std::vector<real> dense;  // row-major nrows x ncols reference
};

/// Random triplet soup with duplicates; the dense reference accumulates
/// the same entries, so `from_triplets` duplicate-summing is exercised.
RandomProblem random_problem(Rng& rng, idx max_dim = 40) {
  RandomProblem p;
  p.nrows = 1 + static_cast<idx>(rng.next_below(max_dim));
  p.ncols = 1 + static_cast<idx>(rng.next_below(max_dim));
  const std::size_t ntrip = rng.next_below(
      4 * static_cast<std::uint64_t>(p.nrows) * p.ncols / 3 + 1);
  p.dense.assign(static_cast<std::size_t>(p.nrows) * p.ncols, real{0});
  p.triplets.reserve(ntrip);
  for (std::size_t t = 0; t < ntrip; ++t) {
    const idx i = static_cast<idx>(rng.next_below(p.nrows));
    const idx j = static_cast<idx>(rng.next_below(p.ncols));
    const real v = 2 * rng.next_real() - 1;
    p.triplets.push_back({i, j, v});
    p.dense[static_cast<std::size_t>(i) * p.ncols + j] += v;
  }
  return p;
}

std::vector<real> random_vector(Rng& rng, idx n) {
  std::vector<real> x(static_cast<std::size_t>(n));
  for (real& v : x) v = 2 * rng.next_real() - 1;
  return x;
}

constexpr int kTrials = 200;
constexpr real kTol = 1e-12;

TEST(CsrProperty, FromTripletsMatchesDenseAccumulation) {
  Rng rng(0xC5511);
  for (int trial = 0; trial < kTrials; ++trial) {
    const RandomProblem p = random_problem(rng);
    const Csr m = Csr::from_triplets(p.nrows, p.ncols, p.triplets);
    ASSERT_EQ(m.nrows, p.nrows);
    ASSERT_EQ(m.ncols, p.ncols);
    const std::vector<real> got = m.to_dense_rowmajor();
    ASSERT_EQ(got.size(), p.dense.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      // Both sides accumulate the same values; ordering may differ, so
      // compare with a tolerance scaled to the duplicate count.
      ASSERT_NEAR(got[k], p.dense[k], 1e-13 * (p.triplets.size() + 1))
          << "trial " << trial << " flat index " << k;
    }
    // Rows must be sorted and duplicate-free.
    for (idx i = 0; i < m.nrows; ++i) {
      for (nnz_t k = m.rowptr[i] + 1; k < m.rowptr[i + 1]; ++k) {
        ASSERT_LT(m.colidx[k - 1], m.colidx[k]);
      }
    }
  }
}

TEST(CsrProperty, SpmvMatchesDenseMatvec) {
  Rng rng(0x5917);
  for (int trial = 0; trial < kTrials; ++trial) {
    const RandomProblem p = random_problem(rng);
    const Csr m = Csr::from_triplets(p.nrows, p.ncols, p.triplets);
    const std::vector<real> x = random_vector(rng, p.ncols);
    std::vector<real> y(static_cast<std::size_t>(p.nrows));
    m.spmv(x, y);
    for (idx i = 0; i < p.nrows; ++i) {
      real want = 0;
      for (idx j = 0; j < p.ncols; ++j) {
        want += p.dense[static_cast<std::size_t>(i) * p.ncols + j] * x[j];
      }
      ASSERT_NEAR(y[i], want, kTol * (p.triplets.size() + 1))
          << "trial " << trial << " row " << i;
    }
  }
}

TEST(CsrProperty, SpmvTransposeMatchesDenseMatvec) {
  Rng rng(0x7A57E);
  for (int trial = 0; trial < kTrials; ++trial) {
    const RandomProblem p = random_problem(rng);
    const Csr m = Csr::from_triplets(p.nrows, p.ncols, p.triplets);
    const std::vector<real> x = random_vector(rng, p.nrows);
    std::vector<real> y(static_cast<std::size_t>(p.ncols));
    m.spmv_transpose(x, y);
    for (idx j = 0; j < p.ncols; ++j) {
      real want = 0;
      for (idx i = 0; i < p.nrows; ++i) {
        want += p.dense[static_cast<std::size_t>(i) * p.ncols + j] * x[i];
      }
      ASSERT_NEAR(y[j], want, kTol * (p.triplets.size() + 1))
          << "trial " << trial << " col " << j;
    }
  }
}

TEST(CsrProperty, TransposeRoundTripIsExact) {
  Rng rng(0x1207);
  for (int trial = 0; trial < kTrials; ++trial) {
    const RandomProblem p = random_problem(rng);
    const Csr m = Csr::from_triplets(p.nrows, p.ncols, p.triplets);
    const Csr tt = m.transposed().transposed();
    ASSERT_EQ(tt.nrows, m.nrows);
    ASSERT_EQ(tt.ncols, m.ncols);
    ASSERT_EQ(tt.rowptr, m.rowptr);
    ASSERT_EQ(tt.colidx, m.colidx);
    ASSERT_EQ(tt.vals, m.vals);  // permutation only — bitwise round trip

    // And A^T x == spmv_transpose(A, x) exactly up to summation order.
    const std::vector<real> x = random_vector(rng, p.nrows);
    std::vector<real> via_t(static_cast<std::size_t>(p.ncols));
    std::vector<real> via_kernel(static_cast<std::size_t>(p.ncols));
    m.transposed().spmv(x, via_t);
    m.spmv_transpose(x, via_kernel);
    for (idx j = 0; j < p.ncols; ++j) {
      ASSERT_NEAR(via_t[j], via_kernel[j], kTol * (p.triplets.size() + 1));
    }
  }
}

TEST(CsrProperty, SymmetryErrorZeroOnSymmetrizedInput) {
  Rng rng(0x5E44);
  for (int trial = 0; trial < kTrials; ++trial) {
    RandomProblem p = random_problem(rng);
    // Symmetrize: emit every triplet mirrored. The (i,j) and (j,i) slots
    // then accumulate the same value multiset, but from_triplets' unstable
    // sort may sum the duplicates in different orders, so allow last-bit
    // rounding noise scaled to the duplicate count.
    const idx n = std::max(p.nrows, p.ncols);
    std::vector<Triplet> sym;
    sym.reserve(2 * p.triplets.size());
    for (const Triplet& t : p.triplets) {
      sym.push_back(t);
      sym.push_back({t.col, t.row, t.value});
    }
    const Csr m = Csr::from_triplets(n, n, sym);
    EXPECT_LE(m.symmetry_error(), 1e-14 * (p.triplets.size() + 1))
        << "trial " << trial;

    // A generic random square matrix, by contrast, should not be
    // symmetric (sanity that the check can fail).
    if (p.nrows == p.ncols && !p.triplets.empty()) {
      const Csr plain = Csr::from_triplets(p.nrows, p.ncols, p.triplets);
      const std::vector<real> d = plain.to_dense_rowmajor();
      real asym = 0;
      for (idx i = 0; i < p.nrows; ++i) {
        for (idx j = 0; j < p.ncols; ++j) {
          asym = std::max(asym,
                          std::fabs(d[static_cast<std::size_t>(i) * p.ncols +
                                      j] -
                                    d[static_cast<std::size_t>(j) * p.ncols +
                                      i]));
        }
      }
      EXPECT_NEAR(plain.symmetry_error(), asym, kTol);
    }
  }
}

TEST(CsrProperty, SpgemmMatchesDenseProduct) {
  Rng rng(0x69E44);
  for (int trial = 0; trial < 60; ++trial) {
    const RandomProblem pa = random_problem(rng, 24);
    RandomProblem pb = random_problem(rng, 24);
    // Force compatible shapes: B is (A.ncols x pb.ncols).
    for (Triplet& t : pb.triplets) t.row %= pa.ncols;
    pb.nrows = pa.ncols;
    const Csr a = Csr::from_triplets(pa.nrows, pa.ncols, pa.triplets);
    const Csr b = Csr::from_triplets(pb.nrows, pb.ncols, pb.triplets);
    const Csr c = spgemm(a, b);
    const std::vector<real> da = a.to_dense_rowmajor();
    const std::vector<real> db = b.to_dense_rowmajor();
    const std::vector<real> dc = c.to_dense_rowmajor();
    for (idx i = 0; i < a.nrows; ++i) {
      for (idx j = 0; j < b.ncols; ++j) {
        real want = 0;
        for (idx k = 0; k < a.ncols; ++k) {
          want += da[static_cast<std::size_t>(i) * a.ncols + k] *
                  db[static_cast<std::size_t>(k) * b.ncols + j];
        }
        ASSERT_NEAR(dc[static_cast<std::size_t>(i) * c.ncols + j], want,
                    1e-11)
            << "trial " << trial << " (" << i << ", " << j << ")";
      }
    }
  }
}

}  // namespace
}  // namespace prom::la
