#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "la/krylov.h"
#include "la/smoothers.h"
#include "graph/order.h"
#include "la/sparse_chol.h"
#include "la/vec.h"

namespace prom::la {
namespace {

/// 3D Poisson 7-point stencil on an n^3 grid.
Csr poisson3d(idx n) {
  auto id = [n](idx i, idx j, idx k) { return (k * n + j) * n + i; };
  std::vector<Triplet> t;
  for (idx k = 0; k < n; ++k) {
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i < n; ++i) {
        t.push_back({id(i, j, k), id(i, j, k), 6.0});
        if (i > 0) t.push_back({id(i, j, k), id(i - 1, j, k), -1.0});
        if (i + 1 < n) t.push_back({id(i, j, k), id(i + 1, j, k), -1.0});
        if (j > 0) t.push_back({id(i, j, k), id(i, j - 1, k), -1.0});
        if (j + 1 < n) t.push_back({id(i, j, k), id(i, j + 1, k), -1.0});
        if (k > 0) t.push_back({id(i, j, k), id(i, j, k - 1), -1.0});
        if (k + 1 < n) t.push_back({id(i, j, k), id(i, j, k + 1), -1.0});
      }
    }
  }
  return Csr::from_triplets(n * n * n, n * n * n, t);
}

class CholSizes : public ::testing::TestWithParam<idx> {};

TEST_P(CholSizes, SolvesPoissonExactly) {
  const idx n = GetParam();
  const Csr a = poisson3d(n);
  SparseCholesky chol(a);
  ASSERT_TRUE(chol.ok());
  std::vector<real> x_true(a.nrows), b(a.nrows), x(a.nrows);
  for (idx i = 0; i < a.nrows; ++i) x_true[i] = std::sin(0.37 * i);
  a.spmv(x_true, b);
  chol.solve(b, x);
  for (idx i = 0; i < a.nrows; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST_P(CholSizes, RcmReducesFill) {
  const idx n = GetParam();
  if (n < 4) GTEST_SKIP();
  const Csr a = poisson3d(n);
  SparseCholOptions with, without;
  without.use_rcm = false;
  // RCM orders a lattice by breadth-first levels; for the *natural* 3D
  // lattice ordering the fill is already near-minimal bandwidth, so
  // shuffle rows first to simulate an arbitrary input ordering.
  const auto perm = graph::random_order(a.nrows, 5);
  std::vector<Triplet> t;
  for (idx i = 0; i < a.nrows; ++i) {
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      t.push_back({perm[i], perm[a.colidx[k]], a.vals[k]});
    }
  }
  const Csr shuffled = Csr::from_triplets(a.nrows, a.ncols, t);
  SparseCholesky chol_rcm(shuffled, with);
  SparseCholesky chol_nat(shuffled, without);
  ASSERT_TRUE(chol_rcm.ok());
  ASSERT_TRUE(chol_nat.ok());
  EXPECT_LT(chol_rcm.factor_nnz(), chol_nat.factor_nnz());
  // Both still solve correctly.
  std::vector<real> b(a.nrows, 1.0), x1(a.nrows), x2(a.nrows);
  chol_rcm.solve(b, x1);
  chol_nat.solve(b, x2);
  for (idx i = 0; i < a.nrows; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholSizes, ::testing::Values(2, 4, 6, 8));

TEST(SparseCholesky, DetectsIndefinite) {
  std::vector<Triplet> t = {{0, 0, 1.0}, {1, 1, -2.0}};
  const Csr a = Csr::from_triplets(2, 2, t);
  EXPECT_FALSE(SparseCholesky(a).ok());
  // A compensating shift makes it factorable.
  SparseCholOptions opts;
  opts.shift = 3.0;
  EXPECT_TRUE(SparseCholesky(a, opts).ok());
}

TEST(SparseCholesky, FactorFlopsAndFillGrowSuperlinearly) {
  // The paper's §1 argument: direct methods have super-linear complexity.
  const Csr small = poisson3d(4);
  const Csr large = poisson3d(8);
  SparseCholesky cs(small), cl(large);
  ASSERT_TRUE(cs.ok() && cl.ok());
  const double dof_ratio =
      static_cast<double>(large.nrows) / small.nrows;  // 8x
  const double flop_ratio = static_cast<double>(cl.factor_flops()) /
                            static_cast<double>(cs.factor_flops());
  EXPECT_GT(flop_ratio, 2 * dof_ratio);  // clearly super-linear
}

TEST(Gmres, SolvesSpdSystemLikeCg) {
  const Csr a = poisson3d(4);
  std::vector<real> x_true(a.nrows, 1.0), b(a.nrows);
  a.spmv(x_true, b);
  const CsrOperator op(a);
  std::vector<real> x(a.nrows, 0.0);
  GmresOptions opts;
  opts.rtol = 1e-10;
  const KrylovResult res = gmres(op, nullptr, b, x, opts);
  EXPECT_TRUE(res.converged);
  for (idx i = 0; i < a.nrows; ++i) EXPECT_NEAR(x[i], 1.0, 1e-7);
}

TEST(Gmres, SolvesNonsymmetricSystem) {
  // Convection-diffusion-like nonsymmetric tridiagonal operator — CG is
  // not applicable; GMRES must converge.
  const idx n = 60;
  std::vector<Triplet> t;
  for (idx i = 0; i < n; ++i) {
    t.push_back({i, i, 3.0});
    if (i > 0) t.push_back({i, i - 1, -2.0});
    if (i + 1 < n) t.push_back({i, i + 1, -0.5});
  }
  const Csr a = Csr::from_triplets(n, n, t);
  std::vector<real> x_true(n), b(n);
  for (idx i = 0; i < n; ++i) x_true[i] = std::cos(0.2 * i);
  a.spmv(x_true, b);
  const CsrOperator op(a);
  std::vector<real> x(n, 0.0);
  GmresOptions opts;
  opts.rtol = 1e-11;
  opts.max_iters = 300;
  const KrylovResult res = gmres(op, nullptr, b, x, opts);
  ASSERT_TRUE(res.converged);
  for (idx i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-7);
}

TEST(Gmres, SolvesIndefiniteSystemWhereCgBreaksDown) {
  // Symmetric indefinite diagonal: CG breaks down, GMRES solves it.
  const idx n = 20;
  std::vector<Triplet> t;
  for (idx i = 0; i < n; ++i) t.push_back({i, i, i % 2 ? -2.0 : 3.0});
  const Csr a = Csr::from_triplets(n, n, t);
  std::vector<real> b(n, 1.0);
  const CsrOperator op(a);
  std::vector<real> x_cg(n, 0.0);
  EXPECT_TRUE(cg(op, b, x_cg).breakdown);
  std::vector<real> x(n, 0.0);
  const KrylovResult res = gmres(op, nullptr, b, x, {});
  ASSERT_TRUE(res.converged);
  for (idx i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], 1.0 / (i % 2 ? -2.0 : 3.0), 1e-8);
  }
}

TEST(Gmres, RestartsStillConverge) {
  const Csr a = poisson3d(5);
  std::vector<real> b(a.nrows, 1.0);
  const CsrOperator op(a);
  std::vector<real> x(a.nrows, 0.0);
  GmresOptions opts;
  opts.rtol = 1e-9;
  opts.restart = 5;  // force many restart cycles
  opts.max_iters = 2000;
  const KrylovResult res = gmres(op, nullptr, b, x, opts);
  EXPECT_TRUE(res.converged);
}

TEST(Gmres, RightPreconditioningAccelerates) {
  // Badly scaled SPD diagonal + Jacobi preconditioner.
  const idx n = 50;
  std::vector<Triplet> t;
  for (idx i = 0; i < n; ++i) t.push_back({i, i, std::pow(10.0, i % 6)});
  const Csr a = Csr::from_triplets(n, n, t);

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
  const CsrOperator op(a);
  GmresOptions opts;
  opts.rtol = 1e-10;
  std::vector<real> x1(n, 0.0), x2(n, 0.0);
  const KrylovResult plain = gmres(op, nullptr, b, x1, opts);
  const KrylovResult pre = gmres(op, &precond, b, x2, opts);
  EXPECT_TRUE(pre.converged);
  EXPECT_LT(pre.iterations, plain.iterations);
}

TEST(Chebyshev, ReducesResidualAndIsSymmetricEnoughForCg) {
  const Csr a = poisson3d(5);
  const CsrOperator op(a);
  const Smoother smoother = Smoother::build(SerialBackend{}, op, a,
                                            SmootherKind::kChebyshev, 0, 3);
  EXPECT_GT(smoother.lambda_max(), 0.5);
  std::vector<real> b(a.nrows, 1.0), x(a.nrows, 0.0);
  std::vector<real> r(a.nrows);
  auto resnorm = [&] {
    a.spmv(x, r);
    waxpby(1, b, -1, r, r);
    return nrm2(r);
  };
  real prev = resnorm();
  for (int step = 0; step < 8; ++step) {
    smoother.smooth(SerialBackend{}, op, b, x);
    const real now = resnorm();
    EXPECT_LT(now, prev);
    prev = now;
  }
}

TEST(Chebyshev, HigherDegreeSmoothsMorePerStep) {
  const Csr a = poisson3d(5);
  const CsrOperator op(a);
  const Smoother deg1 = Smoother::build(SerialBackend{}, op, a,
                                        SmootherKind::kChebyshev, 0, 1);
  const Smoother deg4 = Smoother::build(SerialBackend{}, op, a,
                                        SmootherKind::kChebyshev, 0, 4);
  std::vector<real> b(a.nrows, 1.0);
  std::vector<real> x1(a.nrows, 0.0), x4(a.nrows, 0.0), r(a.nrows);
  deg1.smooth(SerialBackend{}, op, b, x1);
  deg4.smooth(SerialBackend{}, op, b, x4);
  auto resnorm = [&](std::span<const real> x) {
    a.spmv(x, r);
    waxpby(1, b, -1, r, r);
    return nrm2(r);
  };
  EXPECT_LT(resnorm(x4), resnorm(x1));
}

}  // namespace
}  // namespace prom::la
