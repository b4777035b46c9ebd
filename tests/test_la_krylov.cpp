#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "la/krylov.h"
#include "la/vec.h"

namespace prom::la {
namespace {

/// 1D Poisson matrix (tridiagonal 2,-1) of order n — SPD with known
/// spectrum, the classic Krylov test operator.
Csr poisson1d(idx n) {
  std::vector<Triplet> t;
  for (idx i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i + 1 < n) t.push_back({i, i + 1, -1.0});
  }
  return Csr::from_triplets(n, n, t);
}

TEST(Cg, SolvesIdentityInOneIteration) {
  const Csr eye = Csr::identity(10);
  const CsrOperator op(eye);
  std::vector<real> b(10, 3.0), x(10, 0.0);
  const KrylovResult r = cg(op, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 1);
  for (real v : x) EXPECT_NEAR(v, 3.0, 1e-12);
}

class CgPoisson : public ::testing::TestWithParam<idx> {};

TEST_P(CgPoisson, ConvergesToTrueSolution) {
  const idx n = GetParam();
  const Csr a = poisson1d(n);
  const CsrOperator op(a);
  std::vector<real> x_true(n), b(n), x(n, 0.0);
  for (idx i = 0; i < n; ++i) x_true[i] = std::cos(0.1 * i);
  a.spmv(x_true, b);
  KrylovOptions opts;
  opts.rtol = 1e-12;
  opts.max_iters = 2 * n;
  const KrylovResult r = cg(op, b, x);
  EXPECT_TRUE(r.converged);
  for (idx i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-7);
}

TEST_P(CgPoisson, FiniteTerminationProperty) {
  // Exact CG converges in at most n iterations (here: well within 2n even
  // with roundoff at rtol 1e-10).
  const idx n = GetParam();
  const Csr a = poisson1d(n);
  const CsrOperator op(a);
  std::vector<real> b(n, 1.0), x(n, 0.0);
  KrylovOptions opts;
  opts.rtol = 1e-10;
  opts.max_iters = 2 * n;
  const KrylovResult r = cg(op, b, x, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 2 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgPoisson,
                         ::testing::Values(5, 16, 50, 111, 200));

TEST(Cg, ZeroRhsGivesZeroSolution) {
  const Csr a = poisson1d(8);
  const CsrOperator op(a);
  std::vector<real> b(8, 0.0), x(8, 5.0);
  const KrylovResult r = cg(op, b, x);
  EXPECT_TRUE(r.converged);
  for (real v : x) EXPECT_EQ(v, 0.0);
}

TEST(Cg, HonorsInitialGuess) {
  const Csr a = poisson1d(20);
  const CsrOperator op(a);
  std::vector<real> x_true(20, 1.0), b(20);
  a.spmv(x_true, b);
  std::vector<real> x = x_true;  // exact guess: 0 iterations
  const KrylovResult r = cg(op, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

TEST(Cg, BreakdownFlaggedOnIndefiniteOperator) {
  std::vector<Triplet> t = {{0, 0, 1.0}, {1, 1, -1.0}};
  const Csr a = Csr::from_triplets(2, 2, t);
  const CsrOperator op(a);
  std::vector<real> b = {0.0, 1.0}, x = {0.0, 0.0};
  const KrylovResult r = cg(op, b, x);
  EXPECT_TRUE(r.breakdown);
  EXPECT_FALSE(r.converged);
}

TEST(Pcg, JacobiPreconditionerAcceleratesScaledSystem) {
  // Badly scaled diagonal system: unpreconditioned CG needs many
  // iterations; Jacobi-preconditioned CG converges immediately.
  const idx n = 60;
  std::vector<Triplet> t;
  for (idx i = 0; i < n; ++i) t.push_back({i, i, std::pow(10.0, i % 7)});
  const Csr a = Csr::from_triplets(n, n, t);
  const CsrOperator op(a);

  class DiagInv final : public LinearOperator {
   public:
    explicit DiagInv(const Csr& a) : d_(a.diagonal()) {
      for (real& v : d_) v = 1 / v;
    }
    idx rows() const override { return static_cast<idx>(d_.size()); }
    idx cols() const override { return rows(); }
    void apply(BlockCRef x, BlockRef y) const override {
      for (int j = 0; j < x.cols(); ++j) {
        for (std::size_t i = 0; i < d_.size(); ++i) {
          y.col(j)[i] = d_[i] * x.col(j)[i];
        }
      }
    }

   private:
    std::vector<real> d_;
  } precond(a);

  std::vector<real> b(n, 1.0);
  KrylovOptions opts;
  opts.rtol = 1e-10;

  std::vector<real> x1(n, 0.0);
  const KrylovResult plain = cg(op, b, x1, opts);
  std::vector<real> x2(n, 0.0);
  const KrylovResult pre = pcg(op, precond, b, x2, opts);
  EXPECT_TRUE(pre.converged);
  EXPECT_LT(pre.iterations, plain.iterations);
  EXPECT_LE(pre.iterations, 2);
}

TEST(Pcg, HistoryTracksMonotoneTailConvergence) {
  const Csr a = poisson1d(40);
  const CsrOperator op(a);
  const IdentityOperator eye(40);
  std::vector<real> b(40, 1.0), x(40, 0.0);
  KrylovOptions opts;
  opts.rtol = 1e-10;
  opts.track_history = true;
  const KrylovResult r = pcg(op, eye, b, x, opts);
  ASSERT_TRUE(r.converged);
  ASSERT_GE(r.history.size(), 2u);
  // First entry is ||b||, final entry meets the tolerance.
  EXPECT_DOUBLE_EQ(r.history.front(), nrm2(b));
  EXPECT_LE(r.history.back() / r.history.front(), opts.rtol);
}

}  // namespace
}  // namespace prom::la
