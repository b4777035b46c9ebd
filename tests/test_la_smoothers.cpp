#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "la/operator.h"
#include "la/smoothers.h"
#include "la/vec.h"
#include "partition/greedy.h"

namespace prom::la {
namespace {

/// 2D Poisson 5-point stencil on an n x n grid.
Csr poisson2d(idx n) {
  auto id = [n](idx i, idx j) { return i * n + j; };
  std::vector<Triplet> t;
  for (idx i = 0; i < n; ++i) {
    for (idx j = 0; j < n; ++j) {
      t.push_back({id(i, j), id(i, j), 4.0});
      if (i > 0) t.push_back({id(i, j), id(i - 1, j), -1.0});
      if (i + 1 < n) t.push_back({id(i, j), id(i + 1, j), -1.0});
      if (j > 0) t.push_back({id(i, j), id(i, j - 1), -1.0});
      if (j + 1 < n) t.push_back({id(i, j), id(i, j + 1), -1.0});
    }
  }
  return Csr::from_triplets(n * n, n * n, t);
}

real residual_norm(const Csr& a, std::span<const real> b,
                   std::span<const real> x) {
  std::vector<real> r(b.size());
  a.spmv(x, r);
  waxpby(1, b, -1, r, r);
  return nrm2(r);
}

/// A serial smoother bound to its matrix.
struct Bound {
  const Csr* a;
  Smoother s;
  void smooth(std::span<const real> b, std::span<real> x) const {
    s.smooth(SerialBackend{}, CsrOperator(*a), b, x);
  }
};

/// Builds a serial smoother on the whole matrix `a`.
Bound serial(const Csr& a, SmootherKind kind, real omega,
             std::vector<std::vector<idx>> blocks = {}) {
  return {&a, Smoother::build(SerialBackend{}, CsrOperator(a), a, kind, omega,
                              3, std::move(blocks))};
}

// The values keep the instantiated test names stable.
enum class Kind { kJacobi = 0, kBlockJacobi = 2 };

class SmootherKinds : public ::testing::TestWithParam<Kind> {
 protected:
  Bound make(const Csr& a) {
    if (GetParam() == Kind::kJacobi) {
      return serial(a, SmootherKind::kJacobi, 0.67);
    }
    return serial(a, SmootherKind::kBlockJacobi, 0.6,
                  contiguous_blocks(a.nrows, 6));
  }
};

TEST_P(SmootherKinds, EveryStepReducesResidual) {
  const Csr a = poisson2d(10);
  const auto smoother = make(a);
  std::vector<real> b(100, 1.0), x(100, 0.0);
  real prev = residual_norm(a, b, x);
  for (int step = 0; step < 15; ++step) {
    smoother.smooth(b, x);
    const real now = residual_norm(a, b, x);
    EXPECT_LT(now, prev);
    prev = now;
  }
}

TEST_P(SmootherKinds, FixedPointIsExactSolution) {
  // Smoothing at the exact solution must not move it.
  const Csr a = poisson2d(6);
  const auto smoother = make(a);
  std::vector<real> x_true(36);
  for (idx i = 0; i < 36; ++i) x_true[i] = std::sin(i * 0.3);
  std::vector<real> b(36);
  a.spmv(x_true, b);
  std::vector<real> x = x_true;
  smoother.smooth(b, x);
  for (idx i = 0; i < 36; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-12);
}

TEST_P(SmootherKinds, DampsHighFrequencyFasterThanLow) {
  // The defining property of a smoother (§2 of the paper): one step must
  // reduce the highest-frequency error mode by a much larger factor than
  // the lowest-frequency one.
  const idx n = 32;
  std::vector<Triplet> t;
  for (idx i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i + 1 < n) t.push_back({i, i + 1, -1.0});
  }
  const Csr a = Csr::from_triplets(n, n, t);
  const auto smoother = make(a);

  auto damping_of_mode = [&](int k) {
    std::vector<real> e(n), x(n), b(n, 0.0);
    for (idx i = 0; i < n; ++i) {
      e[i] = std::sin(M_PI * k * (i + 1.0) / (n + 1.0));
    }
    x = e;  // error = x - 0
    smoother.smooth(b, x);
    return nrm2(x) / nrm2(e);
  };
  const real low = damping_of_mode(1);
  const real high = damping_of_mode(n - 1);
  EXPECT_LT(high, 0.7);
  EXPECT_GT(low, high * 1.5);
}

INSTANTIATE_TEST_SUITE_P(Kinds, SmootherKinds,
                         ::testing::Values(Kind::kJacobi, Kind::kBlockJacobi));

TEST(BlockJacobi, RejectsOverlappingBlocks) {
  const Csr a = poisson2d(3);
  std::vector<std::vector<idx>> blocks = {{0, 1, 2}, {2, 3, 4},
                                          {5, 6, 7, 8}};
  EXPECT_THROW(serial(a, SmootherKind::kBlockJacobi, 0.6, blocks), Error);
}

TEST(BlockJacobi, RejectsIncompleteCover) {
  const Csr a = poisson2d(3);
  std::vector<std::vector<idx>> blocks = {{0, 1, 2}};
  EXPECT_THROW(serial(a, SmootherKind::kBlockJacobi, 0.6, blocks), Error);
}

TEST(BlockJacobi, SingleBlockIsDirectSolve) {
  // One block spanning everything: x_new = x + omega*(A^{-1} r); with
  // omega = 1 and x0 = 0 this is the exact solution.
  const Csr a = poisson2d(4);
  const Bound smoother =
      serial(a, SmootherKind::kBlockJacobi, 1.0, contiguous_blocks(16, 1));
  std::vector<real> x_true(16, 2.0), b(16), x(16, 0.0);
  a.spmv(x_true, b);
  smoother.smooth(b, x);
  for (idx i = 0; i < 16; ++i) EXPECT_NEAR(x[i], 2.0, 1e-11);
}

TEST(BlockJacobi, GraphPartitionedBlocksMatchPaperDensity) {
  const Csr a = poisson2d(20);  // 400 unknowns
  std::vector<std::pair<idx, idx>> edges;
  for (idx i = 0; i < a.nrows; ++i) {
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      if (a.colidx[k] > i) edges.emplace_back(i, a.colidx[k]);
    }
  }
  const auto g = graph::Graph::from_edges(a.nrows, edges);
  const auto blocks = partition::block_jacobi_blocks(g, 6);
  // ceil(6 * 400 / 1000) = 3 blocks.
  EXPECT_EQ(blocks.size(), 3u);
  const Bound smoother = serial(a, SmootherKind::kBlockJacobi, 0.6, blocks);
  EXPECT_EQ(smoother.s.num_blocks(), 3);
}

TEST(ContiguousBlocks, PartitionExactly) {
  const auto blocks = contiguous_blocks(10, 3);
  idx total = 0;
  for (const auto& b : blocks) total += static_cast<idx>(b.size());
  EXPECT_EQ(total, 10);
  EXPECT_EQ(blocks.size(), 3u);
  // More blocks than elements: degenerate singleton blocks.
  const auto tiny = contiguous_blocks(2, 5);
  EXPECT_EQ(tiny.size(), 2u);
}

}  // namespace
}  // namespace prom::la
