// Non-symmetric Krylov coverage: GMRES(m) and BiCGStab against a dense
// partial-pivoting LU solve on small non-symmetric fixtures, restart
// invariance of the converged answer, the history convention
// (history[0] = ||b||), and right preconditioning. The serial solvers here
// are the same templated bodies the distributed backend instantiates
// (la/krylov_any.h), so this file is the numerical ground truth the
// serial/distributed equivalence suite compares against.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "la/dense.h"
#include "la/krylov.h"
#include "la/vec.h"

namespace prom::la {
namespace {

/// 1D convection-diffusion matrix tridiag(-1-c, 2+d, -1+c): symmetric at
/// c == 0, increasingly skew as c grows; diagonally dominant (nonsingular)
/// for d >= 0, |c| <= 1.
Csr convdiff1d(idx n, real c, real d = 0) {
  std::vector<Triplet> t;
  for (idx i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0 + d});
    if (i > 0) t.push_back({i, i - 1, -1.0 - c});
    if (i + 1 < n) t.push_back({i, i + 1, -1.0 + c});
  }
  return Csr::from_triplets(n, n, t);
}

DenseMatrix densify(const Csr& a) {
  DenseMatrix d(a.nrows, a.ncols);
  for (idx i = 0; i < a.nrows; ++i) {
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      d(i, a.colidx[k]) = a.vals[k];
    }
  }
  return d;
}

std::vector<real> rhs_for(idx n) {
  std::vector<real> b(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) b[i] = std::cos(0.3 * i) + 0.01 * i;
  return b;
}

real true_relres(const Csr& a, std::span<const real> b,
                 std::span<const real> x) {
  std::vector<real> r(b.begin(), b.end());
  std::vector<real> ax(b.size());
  a.spmv(x, ax);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] -= ax[i];
  return nrm2(r) / nrm2(b);
}

/// Jacobi preconditioner as a LinearOperator (for the right-preconditioned
/// paths; any fixed nonsingular operator is admissible).
class DiagPrecond final : public LinearOperator {
 public:
  explicit DiagPrecond(const Csr& a) : inv_diag_(a.nrows) {
    for (idx i = 0; i < a.nrows; ++i) {
      for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
        if (a.colidx[k] == i) inv_diag_[i] = 1.0 / a.vals[k];
      }
    }
  }
  idx rows() const override { return static_cast<idx>(inv_diag_.size()); }
  idx cols() const override { return rows(); }
  void apply(BlockCRef x, BlockRef y) const override {
    for (int j = 0; j < x.cols(); ++j) {
      for (std::size_t i = 0; i < inv_diag_.size(); ++i) {
        y.col(j)[i] = inv_diag_[i] * x.col(j)[i];
      }
    }
  }

 private:
  std::vector<real> inv_diag_;
};

TEST(DenseLuFactor, SolvesNonsymmetricSystemExactly) {
  // A fixture LU's pivoting must actually visit: zero leading pivot.
  DenseMatrix a(3, 3);
  a(0, 0) = 0;  a(0, 1) = 2;  a(0, 2) = 1;
  a(1, 0) = 1;  a(1, 1) = 1;  a(1, 2) = 0;
  a(2, 0) = 3;  a(2, 1) = 0;  a(2, 2) = 4;
  const DenseLu lu(a);
  ASSERT_TRUE(lu.ok());
  const std::vector<real> x_true = {1.0, -2.0, 0.5};
  std::vector<real> b(3, 0);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) b[i] += a(i, j) * x_true[j];
  }
  std::vector<real> x(3);
  lu.solve(b, x);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-13);
}

TEST(DenseLuFactor, RejectsSingularMatrix) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;  a(0, 1) = 2;
  a(1, 0) = 2;  a(1, 1) = 4;  // rank 1
  const DenseLu lu(a);
  EXPECT_FALSE(lu.ok());
}

class NonsymSolvers : public ::testing::TestWithParam<real> {};

TEST_P(NonsymSolvers, GmresMatchesDenseLu) {
  const idx n = 40;
  const Csr a = convdiff1d(n, GetParam());
  const std::vector<real> b = rhs_for(n);
  std::vector<real> x_lu(static_cast<std::size_t>(n));
  const DenseLu lu(densify(a));
  ASSERT_TRUE(lu.ok());
  lu.solve(b, x_lu);

  const CsrOperator op(a);
  GmresOptions opts;
  opts.rtol = 1e-12;
  opts.max_iters = 400;
  opts.track_history = true;
  std::vector<real> x(static_cast<std::size_t>(n), 0);
  const KrylovResult r = gmres(op, nullptr, b, x, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_FALSE(r.breakdown);
  ASSERT_FALSE(r.history.empty());
  EXPECT_EQ(r.history[0], nrm2(b));  // history convention: entry 0 = ||b||
  EXPECT_LE(true_relres(a, b, x), 1e-11);
  for (idx i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_lu[i], 1e-9);
}

TEST_P(NonsymSolvers, BicgstabMatchesDenseLu) {
  const idx n = 40;
  const Csr a = convdiff1d(n, GetParam());
  const std::vector<real> b = rhs_for(n);
  std::vector<real> x_lu(static_cast<std::size_t>(n));
  const DenseLu lu(densify(a));
  ASSERT_TRUE(lu.ok());
  lu.solve(b, x_lu);

  const CsrOperator op(a);
  KrylovOptions opts;
  opts.rtol = 1e-12;
  opts.max_iters = 400;
  opts.track_history = true;
  std::vector<real> x(static_cast<std::size_t>(n), 0);
  const KrylovResult r = bicgstab(op, nullptr, b, x, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_FALSE(r.breakdown);
  ASSERT_FALSE(r.history.empty());
  EXPECT_EQ(r.history[0], nrm2(b));
  // BiCGStab's recursively updated residual drifts slightly from the true
  // one; allow two orders over the stopping tolerance.
  EXPECT_LE(true_relres(a, b, x), 1e-10);
  for (idx i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_lu[i], 1e-8);
}

// Skewness sweep: symmetric, mildly and strongly advective.
INSTANTIATE_TEST_SUITE_P(Skew, NonsymSolvers,
                         ::testing::Values(0.0, 0.3, 0.9));

TEST(GmresRestart, ConvergedAnswerIsRestartInvariant) {
  // Any restart length must land on the same solution (the minimized
  // residual is the true residual, and the system is well conditioned).
  const idx n = 60;
  const Csr a = convdiff1d(n, 0.5, 0.5);
  const std::vector<real> b = rhs_for(n);
  const CsrOperator op(a);

  std::vector<std::vector<real>> sols;
  for (int restart : {5, 15, 60}) {
    GmresOptions opts;
    opts.rtol = 1e-12;
    opts.max_iters = 2000;
    opts.restart = restart;
    std::vector<real> x(static_cast<std::size_t>(n), 0);
    const KrylovResult r = gmres(op, nullptr, b, x, opts);
    ASSERT_TRUE(r.converged) << "restart " << restart;
    EXPECT_LE(true_relres(a, b, x), 1e-11) << "restart " << restart;
    sols.push_back(std::move(x));
  }
  for (std::size_t s = 1; s < sols.size(); ++s) {
    for (idx i = 0; i < n; ++i) {
      EXPECT_NEAR(sols[s][i], sols[0][i], 1e-9) << "restart set " << s;
    }
  }
}

TEST(NonsymPrecond, RightPreconditioningPreservesTrueResidual) {
  // Right preconditioning minimizes the *true* residual: final_relres must
  // match ||b - Ax|| / ||b|| computed from scratch, preconditioned or not.
  const idx n = 50;
  const Csr a = convdiff1d(n, 0.7, 1.0);
  const std::vector<real> b = rhs_for(n);
  const CsrOperator op(a);
  const DiagPrecond m(a);

  GmresOptions gopts;
  gopts.rtol = 1e-10;
  std::vector<real> xg(static_cast<std::size_t>(n), 0);
  const KrylovResult rg = gmres(op, &m, b, xg, gopts);
  ASSERT_TRUE(rg.converged);
  EXPECT_NEAR(rg.final_relres, true_relres(a, b, xg), 1e-12);

  KrylovOptions bopts;
  bopts.rtol = 1e-10;
  std::vector<real> xb(static_cast<std::size_t>(n), 0);
  const KrylovResult rb = bicgstab(op, &m, b, xb, bopts);
  ASSERT_TRUE(rb.converged);
  EXPECT_LE(true_relres(a, b, xb), 1e-9);
  for (idx i = 0; i < n; ++i) EXPECT_NEAR(xb[i], xg[i], 1e-7);
}

TEST(NonsymSolversEdge, ZeroRhsGivesZeroSolution) {
  const Csr a = convdiff1d(12, 0.4);
  const CsrOperator op(a);
  std::vector<real> b(12, 0.0);
  std::vector<real> x(12, 7.0);
  const KrylovResult rg = gmres(op, nullptr, b, x);
  EXPECT_TRUE(rg.converged);
  for (real v : x) EXPECT_EQ(v, 0.0);
  std::vector<real> y(12, 7.0);
  const KrylovResult rb = bicgstab(op, nullptr, b, y);
  EXPECT_TRUE(rb.converged);
  for (real v : y) EXPECT_EQ(v, 0.0);
}

TEST(KrylovKindNames, RoundTrip) {
  EXPECT_STREQ(to_string(KrylovKind::kPcg), "pcg");
  EXPECT_STREQ(to_string(KrylovKind::kGmres), "gmres");
  EXPECT_STREQ(to_string(KrylovKind::kBicgstab), "bicgstab");
}

}  // namespace
}  // namespace prom::la
