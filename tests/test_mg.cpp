#include <gtest/gtest.h>

#include <cmath>

#include "app/driver.h"
#include "fem/assembly.h"
#include "la/vec.h"
#include "mesh/generate.h"
#include "mg/cycle.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"

namespace prom::mg {
namespace {

struct BuiltProblem {
  app::ModelProblem model;
  fem::LinearSystem sys;
  Hierarchy hierarchy;
};

BuiltProblem build_box(idx n, const MgOptions& opts = {}) {
  BuiltProblem bp;
  bp.model = app::make_box_problem(n);
  fem::FeProblem fe(bp.model.mesh, bp.model.materials, bp.model.dofmap);
  bp.sys = fem::assemble_linear_system(fe);
  bp.hierarchy = Hierarchy::build(bp.model.mesh, bp.model.dofmap,
                                  bp.sys.stiffness, opts);
  return bp;
}

TEST(Hierarchy, BuildsMultipleLevelsWithShrinkingGrids) {
  MgOptions opts;
  opts.coarsest_max_dofs = 100;
  const BuiltProblem bp = build_box(8, opts);
  ASSERT_GE(bp.hierarchy.num_levels(), 2);
  for (int l = 1; l < bp.hierarchy.num_levels(); ++l) {
    EXPECT_LT(bp.hierarchy.level(l).free_dofs.size(),
              bp.hierarchy.level(l - 1).free_dofs.size());
    EXPECT_GT(bp.hierarchy.level(l).r.nnz(), 0);
  }
  EXPECT_FALSE(bp.hierarchy.describe().empty());
}

TEST(Hierarchy, GalerkinOperatorsSymmetric) {
  const BuiltProblem bp = build_box(6);
  for (int l = 0; l < bp.hierarchy.num_levels(); ++l) {
    EXPECT_LT(bp.hierarchy.level(l).a.symmetry_error(), 1e-10)
        << "level " << l;
  }
}

TEST(Hierarchy, GalerkinIsRART) {
  // A_1 must equal R * A_0 * R^T entry-for-entry.
  MgOptions opts;
  opts.coarsest_max_dofs = 150;
  const BuiltProblem bp = build_box(5, opts);
  if (bp.hierarchy.num_levels() < 2) GTEST_SKIP();
  const la::Csr& a0 = bp.hierarchy.level(0).a;
  const la::Csr& r = bp.hierarchy.level(1).r;
  const la::Csr ref = la::galerkin_product(r, a0);
  const la::Csr& a1 = bp.hierarchy.level(1).a;
  ASSERT_EQ(ref.nnz(), a1.nnz());
  for (std::size_t k = 0; k < ref.vals.size(); ++k) {
    EXPECT_NEAR(ref.vals[k], a1.vals[k], 1e-14);
  }
}

TEST(Vcycle, ReducesErrorEveryCycle) {
  const BuiltProblem bp = build_box(6);
  const la::Csr& a = bp.hierarchy.level(0).a;
  std::vector<real> x_true(a.nrows);
  for (idx i = 0; i < a.nrows; ++i) x_true[i] = std::sin(0.7 * i);
  std::vector<real> b(a.nrows);
  a.spmv(x_true, b);
  std::vector<real> x(a.nrows, 0.0);
  real prev = la::nrm2(b);
  for (int cycle = 0; cycle < 6; ++cycle) {
    vcycle(bp.hierarchy, 0, b, x);
    std::vector<real> r(a.nrows);
    a.spmv(x, r);
    la::waxpby(1, b, -1, r, r);
    const real now = la::nrm2(r);
    EXPECT_LT(now, 0.7 * prev) << "cycle " << cycle;
    prev = now;
  }
}

TEST(Fmg, SingleCycleBeatsSingleVcycle) {
  const BuiltProblem bp = build_box(6);
  const la::Csr& a = bp.hierarchy.level(0).a;
  const std::vector<real>& b = bp.sys.rhs;
  // FMG from zero.
  const std::vector<real> x_fmg = fmg_cycle(bp.hierarchy, b);
  std::vector<real> r(a.nrows);
  a.spmv(x_fmg, r);
  la::waxpby(1, b, -1, r, r);
  const real res_fmg = la::nrm2(r);
  // One V-cycle from zero.
  std::vector<real> x_v(a.nrows, 0.0);
  vcycle(bp.hierarchy, 0, b, x_v);
  a.spmv(x_v, r);
  la::waxpby(1, b, -1, r, r);
  const real res_v = la::nrm2(r);
  EXPECT_LE(res_fmg, res_v * 1.1);
}

class MgCycleKinds : public ::testing::TestWithParam<CycleKind> {};

TEST_P(MgCycleKinds, PcgConvergesTight) {
  const BuiltProblem bp = build_box(7);
  std::vector<real> x(bp.sys.rhs.size(), 0.0);
  MgSolveOptions so;
  so.rtol = 1e-10;
  so.cycle = GetParam();
  const la::KrylovResult res = mg_pcg_solve(bp.hierarchy, bp.sys.rhs, x, so);
  EXPECT_TRUE(res.converged);
  EXPECT_FALSE(res.breakdown);
  EXPECT_LT(res.iterations, 40);
  // Verify against the residual definition.
  std::vector<real> r(bp.sys.rhs.size());
  bp.hierarchy.level(0).a.spmv(x, r);
  la::waxpby(1, bp.sys.rhs, -1, r, r);
  EXPECT_LT(la::nrm2(r) / la::nrm2(bp.sys.rhs), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Cycles, MgCycleKinds,
                         ::testing::Values(CycleKind::kV, CycleKind::kFmg));

TEST(MgSolver, IterationCountMeshIndependent) {
  // The headline multigrid property: iterations stay bounded as the mesh
  // refines (Table 2's near-constant iteration column).
  int prev_iters = 0;
  for (idx n : {6, 9, 12}) {
    const BuiltProblem bp = build_box(n);
    std::vector<real> x(bp.sys.rhs.size(), 0.0);
    MgSolveOptions so;
    so.rtol = 1e-8;
    const la::KrylovResult res =
        mg_pcg_solve(bp.hierarchy, bp.sys.rhs, x, so);
    ASSERT_TRUE(res.converged) << "n = " << n;
    EXPECT_LT(res.iterations, 30);
    if (prev_iters > 0) {
      EXPECT_LE(res.iterations, prev_iters + 5);
    }
    prev_iters = res.iterations;
  }
}

TEST(MgSolver, MaterialJumpsHandled) {
  // The sphere problem's 1e4 coefficient jump + near-incompressibility.
  mesh::SphereInCubeParams sp;
  sp.num_shells = 5;
  sp.base_core_layers = 1;
  sp.base_outer_layers = 1;
  const app::ModelProblem model = app::make_sphere_problem(sp, 0.36);
  fem::FeProblem fe(model.mesh, model.materials, model.dofmap);
  const fem::LinearSystem sys = fem::assemble_linear_system(fe);
  MgOptions opts;
  opts.coarsest_max_dofs = 300;
  const Hierarchy h =
      Hierarchy::build(model.mesh, model.dofmap, sys.stiffness, opts);
  std::vector<real> x(sys.rhs.size(), 0.0);
  MgSolveOptions so;
  so.rtol = 1e-4;  // the paper's first-solve tolerance
  so.max_iters = 120;
  const la::KrylovResult res = mg_pcg_solve(h, sys.rhs, x, so);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations, 80);
}

TEST(Hierarchy, UpdateFineMatrixRebuildsChain) {
  MgOptions opts;
  opts.coarsest_max_dofs = 150;
  BuiltProblem bp = build_box(5, opts);
  if (bp.hierarchy.num_levels() < 2) GTEST_SKIP();
  // Scale the fine operator by 2: all coarse operators must double.
  la::Csr scaled = bp.hierarchy.level(0).a;
  for (real& v : scaled.vals) v *= 2;
  const real before = bp.hierarchy.level(1).a.vals[0];
  bp.hierarchy.update_fine_matrix(std::move(scaled));
  const real after = bp.hierarchy.level(1).a.vals[0];
  EXPECT_NEAR(after, 2 * before, 1e-12 * std::abs(before));
  // Solver still works after the update.
  std::vector<real> x(bp.sys.rhs.size(), 0.0);
  MgSolveOptions so;
  so.rtol = 1e-8;
  EXPECT_TRUE(mg_pcg_solve(bp.hierarchy, bp.sys.rhs, x, so).converged);
}

TEST(MgOptions, SmootherKindsAllConverge) {
  for (SmootherKind kind :
       {SmootherKind::kJacobi, SmootherKind::kBlockJacobi}) {
    MgOptions opts;
    opts.smoother = kind;
    const BuiltProblem bp = build_box(6, opts);
    std::vector<real> x(bp.sys.rhs.size(), 0.0);
    MgSolveOptions so;
    so.rtol = 1e-8;
    so.max_iters = 100;
    const la::KrylovResult res =
        mg_pcg_solve(bp.hierarchy, bp.sys.rhs, x, so);
    EXPECT_TRUE(res.converged) << "smoother " << static_cast<int>(kind);
  }
}

}  // namespace
}  // namespace prom::mg
