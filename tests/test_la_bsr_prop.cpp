// Property suite for the node-block (BAIJ-style) kernel layer (la/bsr.h):
// lossless CSR round-trips, bitwise agreement of every blocked kernel with
// its scalar counterpart (the BSR SpMV preserves CSR's per-scalar-row
// accumulation order, so "agreement" means equality, not tolerance), the
// padded free-dof view, point-block smoother sweeps, and the thread-count
// determinism gate of common/parallel.h.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "fem/assembly.h"
#include "la/backend.h"
#include "la/bsr.h"
#include "la/csr.h"
#include "la/smoother_kernels.h"
#include "la/vec.h"
#include "mesh/generate.h"

namespace prom {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

template <typename Fn>
auto with_threads(int t, const Fn& fn) {
  common::set_kernel_threads(t);
  auto out = fn();
  common::set_kernel_threads(0);
  return out;
}

template <typename T>
void expect_bitwise_equal(const std::vector<T>& a, const std::vector<T>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
      << what << ": results differ bitwise";
}

/// Random block matrix from block triplets (duplicates included, so the
/// summing path is exercised too).
la::Bsr3 random_bsr(Rng& rng, idx nbrows, idx nbcols, idx blocks_per_row) {
  std::vector<la::BlockTriplet3> trip;
  for (idx i = 0; i < nbrows; ++i) {
    for (idx k = 0; k < blocks_per_row; ++k) {
      la::BlockTriplet3 bt;
      bt.brow = i;
      bt.bcol = static_cast<idx>(rng.next_below(nbcols));
      for (auto& v : bt.v) v = rng.next_real() - 0.5;
      trip.push_back(bt);
    }
  }
  return la::Bsr3::from_block_triplets(nbrows, nbcols, trip);
}

/// Random block-diagonally-dominant symmetric matrix in node space (every
/// diagonal block SPD — a valid point-block smoother operator).
la::Bsr3 random_block_spd(Rng& rng, idx nb, idx off_per_row) {
  std::vector<la::BlockTriplet3> trip;
  std::vector<real> dom(static_cast<std::size_t>(nb), real{1});
  for (idx i = 0; i < nb; ++i) {
    for (idx k = 0; k < off_per_row; ++k) {
      const idx j = static_cast<idx>(rng.next_below(nb));
      if (j == i) continue;
      la::BlockTriplet3 bt;
      bt.brow = i;
      bt.bcol = j;
      real mag = 0;
      for (auto& v : bt.v) {
        v = rng.next_real() - 0.5;
        mag += std::abs(v);
      }
      la::BlockTriplet3 tr;
      tr.brow = j;
      tr.bcol = i;
      for (int r = 0; r < 3; ++r) {
        for (int c = 0; c < 3; ++c) tr.v[r * 3 + c] = bt.v[c * 3 + r];
      }
      trip.push_back(bt);
      trip.push_back(tr);
      dom[i] += mag + 1;
      dom[j] += mag + 1;
    }
  }
  for (idx i = 0; i < nb; ++i) {
    la::BlockTriplet3 bt;
    bt.brow = bt.bcol = i;
    bt.v.fill(0);
    for (int c = 0; c < 3; ++c) bt.v[c * 3 + c] = dom[i];
    trip.push_back(bt);
  }
  return la::Bsr3::from_block_triplets(nb, nb, trip);
}

std::vector<real> random_vec(Rng& rng, idx n) {
  std::vector<real> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.next_real() - 0.5;
  return x;
}

/// The assembled box-problem stiffness (constrained dofs removed) and its
/// free-dof list — the real operator the solve path re-blocks.
struct FreeSystem {
  la::Csr a;
  std::vector<idx> free_dofs;
};
FreeSystem box_free_system(idx n) {
  mesh::Mesh mesh = mesh::box_hex(n, n, n, {0, 0, 0}, {1, 1, 1});
  fem::DofMap dofmap(mesh.num_vertices());
  dofmap.fix_all(
      mesh.vertices_where([](const Vec3& p) { return p.z < 1e-12; }), 0.0);
  for (idx v :
       mesh.vertices_where([](const Vec3& p) { return p.z > 1 - 1e-12; })) {
    dofmap.fix(v, 2, -0.05);
  }
  dofmap.finalize();
  fem::FeProblem problem(mesh, {fem::Material{}}, dofmap);
  FreeSystem out;
  out.a = fem::assemble_linear_system(problem).stiffness;
  out.free_dofs = dofmap.free_dofs();
  return out;
}

TEST(BsrRoundTrip, CsrThereAndBackIsLossless) {
  Rng rng(17);
  const la::Bsr3 m = random_bsr(rng, 40, 30, 5);
  const la::Csr s = m.to_csr();
  ASSERT_EQ(s.nrows, m.rows());
  ASSERT_EQ(s.ncols, m.cols());
  ASSERT_EQ(s.nnz(), m.nblocks() * 9);
  const la::Bsr3 back = la::Bsr3::from_csr(s);
  ASSERT_EQ(back.nbrows, m.nbrows);
  ASSERT_EQ(back.nbcols, m.nbcols);
  expect_bitwise_equal(back.browptr, m.browptr, "browptr");
  expect_bitwise_equal(back.bcolidx, m.bcolidx, "bcolidx");
  expect_bitwise_equal(back.vals, m.vals, "vals");
}

TEST(BsrRoundTrip, FromCsrKeepsEveryScalarEntry) {
  Rng rng(18);
  // A scalar matrix with ragged (non-block) sparsity: blocking fills with
  // explicit zeros and must not move any value.
  std::vector<la::Triplet> trip;
  const idx n = 36;
  for (idx i = 0; i < n; ++i) {
    for (int k = 0; k < 4; ++k) {
      trip.push_back({i, static_cast<idx>(rng.next_below(n)),
                      rng.next_real() - 0.5});
    }
  }
  const la::Csr a = la::Csr::from_triplets(n, n, trip);
  const la::Bsr3 m = la::Bsr3::from_csr(a);
  for (idx i = 0; i < n; ++i) {
    for (idx j = 0; j < n; ++j) {
      real aij = 0;
      for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
        if (a.colidx[k] == j) aij = a.vals[k];
      }
      ASSERT_EQ(m.at(i, j), aij) << "entry (" << i << ", " << j << ")";
    }
  }
}

TEST(BsrKernels, SpmvMatchesCsrBitwise) {
  Rng rng(19);
  const la::Bsr3 m = random_bsr(rng, 50, 40, 6);
  const la::Csr s = m.to_csr();
  const std::vector<real> x = random_vec(rng, m.cols());
  std::vector<real> yb(static_cast<std::size_t>(m.rows()));
  std::vector<real> ys(yb.size());
  m.spmv(x, yb);
  s.spmv(x, ys);
  expect_bitwise_equal(yb, ys, "spmv");

  // The fused residual: same bits as spmv followed by b - y.
  const std::vector<real> b = random_vec(rng, m.rows());
  std::vector<real> rb(b.size());
  m.residual(b, x, rb);
  std::vector<real> rs(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) rs[i] = b[i] - ys[i];
  expect_bitwise_equal(rb, rs, "residual");
}

TEST(BsrKernels, TransposeMatchesCsr) {
  Rng rng(20);
  const la::Bsr3 m = random_bsr(rng, 30, 45, 5);
  const la::Csr st = m.to_csr().transposed();
  const la::Csr bt = m.transposed().to_csr();
  ASSERT_EQ(bt.nrows, st.nrows);
  ASSERT_EQ(bt.ncols, st.ncols);
  expect_bitwise_equal(bt.rowptr, st.rowptr, "transposed rowptr");
  expect_bitwise_equal(bt.colidx, st.colidx, "transposed colidx");
  expect_bitwise_equal(bt.vals, st.vals, "transposed vals");
}

TEST(BsrKernels, BlockDiagonalAndInverse) {
  Rng rng(21);
  const la::Bsr3 m = random_block_spd(rng, 25, 4);
  const std::vector<real> diag = m.diagonal();
  const std::vector<real> bd = m.block_diagonal();
  const std::vector<real> inv = m.inverted_block_diagonal();
  ASSERT_EQ(diag.size(), static_cast<std::size_t>(m.rows()));
  ASSERT_EQ(bd.size(), static_cast<std::size_t>(m.nbrows) * 9);
  ASSERT_EQ(inv.size(), bd.size());
  for (idx nb = 0; nb < m.nbrows; ++nb) {
    const real* d = bd.data() + nb * 9;
    const real* di = inv.data() + nb * 9;
    real scale = 0;
    for (int e = 0; e < 9; ++e) scale = std::max(scale, std::abs(d[e]));
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(d[r * 3 + r], diag[3 * nb + r]);
      for (int c = 0; c < 3; ++c) {
        EXPECT_EQ(d[r * 3 + c], m.at(3 * nb + r, 3 * nb + c));
        real prod = 0;
        for (int k = 0; k < 3; ++k) prod += di[r * 3 + k] * d[k * 3 + c];
        EXPECT_NEAR(prod, r == c ? 1.0 : 0.0, 1e-12 * std::max(scale, real{1}))
            << "block " << nb;
      }
    }
  }
}

TEST(BsrKernels, MissingDiagonalBlockInvertsToIdentity) {
  // One strictly off-diagonal block: the diagonal block is absent, its
  // "inverse" must be the identity (the point-block smoothers rely on it).
  la::BlockTriplet3 bt;
  bt.brow = 0;
  bt.bcol = 1;
  bt.v.fill(2.0);
  const la::Bsr3 m =
      la::Bsr3::from_block_triplets(2, 2, std::span(&bt, 1));
  const std::vector<real> inv = m.inverted_block_diagonal();
  for (idx nb = 0; nb < 2; ++nb) {
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) {
        EXPECT_EQ(inv[nb * 9 + r * 3 + c], r == c ? 1.0 : 0.0);
      }
    }
  }
}

TEST(BsrKernels, SpgemmAndGalerkinMatchScalar) {
  Rng rng(22);
  const la::Bsr3 a = random_block_spd(rng, 30, 4);
  const la::Bsr3 r = random_bsr(rng, 12, 30, 5);
  const la::Csr sc = la::galerkin_product(r.to_csr(), a.to_csr());
  const la::Bsr3 bc = la::galerkin_product<3>(r, a);
  ASSERT_EQ(bc.rows(), sc.nrows);
  ASSERT_EQ(bc.cols(), sc.ncols);
  // Same per-entry accumulation order (ascending scalar k, blocked or
  // not): values agree exactly where the scalar product stores an entry,
  // and the blocked fill is exact zeros elsewhere.
  for (idx i = 0; i < sc.nrows; ++i) {
    std::vector<real> dense(static_cast<std::size_t>(sc.ncols), 0);
    for (nnz_t k = sc.rowptr[i]; k < sc.rowptr[i + 1]; ++k) {
      dense[sc.colidx[k]] = sc.vals[k];
    }
    for (idx j = 0; j < sc.ncols; ++j) {
      ASSERT_EQ(bc.at(i, j), dense[j]) << "entry (" << i << ", " << j << ")";
    }
  }

  const la::Csr sp = la::spgemm(r.to_csr(), a.to_csr());
  const la::Bsr3 bp = la::spgemm<3>(r, a);
  const std::vector<real> x = random_vec(rng, bp.cols());
  std::vector<real> yb(static_cast<std::size_t>(bp.rows()));
  std::vector<real> ys(yb.size());
  bp.spmv(x, yb);
  sp.spmv(x, ys);
  for (std::size_t i = 0; i < yb.size(); ++i) {
    EXPECT_EQ(yb[i], ys[i]) << "spgemm row " << i;
  }
}

TEST(BsrFreeDofView, OperatorMatchesScalarCsrBitwise) {
  const FreeSystem sys = box_free_system(5);
  const la::NodeBlockMap map = la::node_block_map(sys.free_dofs);
  ASSERT_LT(map.nfree, map.nslots());  // the box problem has constraints
  const la::BsrOperator op(la::bsr_from_free_csr(sys.a, map), map);
  ASSERT_EQ(op.rows(), sys.a.nrows);

  Rng rng(23);
  const std::vector<real> x = random_vec(rng, sys.a.nrows);
  std::vector<real> yb(x.size());
  std::vector<real> ys(x.size());
  op.apply(x, yb);
  sys.a.spmv(x, ys);
  expect_bitwise_equal(yb, ys, "free-dof blocked spmv");

  const std::vector<real> b = random_vec(rng, sys.a.nrows);
  std::vector<real> rb(x.size());
  op.residual(b, x, rb);
  std::vector<real> rs(x.size());
  for (std::size_t i = 0; i < rs.size(); ++i) rs[i] = b[i] - ys[i];
  expect_bitwise_equal(rb, rs, "free-dof blocked residual");

  // Padded diagonal slots carry exact identity pivots.
  const la::Bsr3& m = op.matrix();
  for (idx s = 0; s < map.nslots(); ++s) {
    if (map.free_of_slot[s] == kInvalidIdx) {
      ASSERT_EQ(m.at(s, s), 1.0) << "padding slot " << s;
    }
  }
}

TEST(BsrFreeDofView, GatherScatterRoundTrip) {
  const FreeSystem sys = box_free_system(4);
  const la::NodeBlockMap map = la::node_block_map(sys.free_dofs);
  Rng rng(24);
  const std::vector<real> x = random_vec(rng, map.nfree);
  std::vector<real> slots(static_cast<std::size_t>(map.nslots()), -1);
  map.gather(x, slots);
  for (idx s = 0; s < map.nslots(); ++s) {
    if (map.free_of_slot[s] == kInvalidIdx) {
      EXPECT_EQ(slots[s], 0.0) << "padding slot " << s;
    }
  }
  std::vector<real> back(x.size());
  map.scatter(slots, back);
  expect_bitwise_equal(back, x, "gather/scatter round trip");
}

TEST(BsrSmoothers, PointBlockJacobiMatchesManualUpdate) {
  Rng rng(25);
  const idx nb = 40;
  const la::Bsr3 m = random_block_spd(rng, nb, 4);
  // Identity node map: every dof free, so the operator runs in block space.
  std::vector<idx> all_dofs(static_cast<std::size_t>(m.rows()));
  for (idx i = 0; i < m.rows(); ++i) all_dofs[i] = i;
  const la::NodeBlockMap map = la::node_block_map(all_dofs);
  const la::BsrOperator op(m, map);
  const std::vector<real> inv = m.inverted_block_diagonal();
  const std::vector<real> b = random_vec(rng, m.rows());
  const std::vector<real> x0 = random_vec(rng, m.rows());
  const real omega = 0.7;

  std::vector<real> x = x0;
  la::pointblock_jacobi_sweep<3>(la::SerialBackend{}, op, inv, omega, b, x);

  // Manual reference in the kernel's accumulation order.
  std::vector<real> r(b.size());
  op.residual(b, x0, r);
  std::vector<real> ref = x0;
  for (idx n = 0; n < nb; ++n) {
    for (int c = 0; c < 3; ++c) {
      real acc = 0;
      for (int k = 0; k < 3; ++k) acc += inv[n * 9 + c * 3 + k] * r[3 * n + k];
      ref[3 * n + c] += omega * acc;
    }
  }
  expect_bitwise_equal(x, ref, "point-block Jacobi sweep");

  // Repeated sweeps reduce the error of the dominant system.
  std::vector<real> y(b.size());
  op.apply(x, y);
  real e1 = 0, e0 = 0;
  for (std::size_t i = 0; i < b.size(); ++i) e1 += (b[i] - y[i]) * (b[i] - y[i]);
  op.apply(x0, y);
  for (std::size_t i = 0; i < b.size(); ++i) e0 += (b[i] - y[i]) * (b[i] - y[i]);
  EXPECT_LT(e1, e0);
}

TEST(BsrSmoothers, PointBlockChebyshevReducesResidual) {
  Rng rng(26);
  const la::Bsr3 m = random_block_spd(rng, 40, 4);
  std::vector<idx> all_dofs(static_cast<std::size_t>(m.rows()));
  for (idx i = 0; i < m.rows(); ++i) all_dofs[i] = i;
  const la::NodeBlockMap map = la::node_block_map(all_dofs);
  const la::BsrOperator op(m, map);
  const std::vector<real> inv = m.inverted_block_diagonal();
  const std::vector<real> b = random_vec(rng, m.rows());

  // Diagonal dominance bounds the block-preconditioned spectrum near 1.
  std::vector<real> x(b.size(), 0);
  la::pointblock_chebyshev_sweep<3>(la::SerialBackend{}, op, inv, 4, 0.1, 2.0,
                                    b, x);
  std::vector<real> r(b.size());
  op.residual(b, x, r);
  real rn = 0, bn = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rn += r[i] * r[i];
    bn += b[i] * b[i];
  }
  EXPECT_LT(std::sqrt(rn), 0.5 * std::sqrt(bn));
}

// ---------------------------------------------------------------------------
// Thread-count determinism gate: every blocked kernel must produce
// BIT-identical results at 1, 2, and 8 kernel threads.

TEST(BsrDeterminism, KernelsAreThreadCountInvariant) {
  Rng rng(27);
  const la::Bsr3 a = random_block_spd(rng, 90, 6);
  const la::Bsr3 r = random_bsr(rng, 30, 90, 8);
  const std::vector<real> x = random_vec(rng, a.cols());
  const std::vector<real> b = random_vec(rng, a.rows());

  struct Outputs {
    std::vector<real> spmv, resid, galerkin;
  };
  auto run = [&] {
    Outputs o;
    o.spmv.resize(static_cast<std::size_t>(a.rows()));
    a.spmv(x, o.spmv);
    o.resid.resize(static_cast<std::size_t>(a.rows()));
    a.residual(b, x, o.resid);
    o.galerkin = la::galerkin_product<3>(r, a).vals;
    return o;
  };

  const Outputs ref = with_threads(kThreadCounts[0], run);
  for (std::size_t t = 1; t < std::size(kThreadCounts); ++t) {
    const Outputs got = with_threads(kThreadCounts[t], run);
    expect_bitwise_equal(got.spmv, ref.spmv, "spmv");
    expect_bitwise_equal(got.resid, ref.resid, "residual");
    expect_bitwise_equal(got.galerkin, ref.galerkin, "galerkin vals");
  }
}

TEST(BsrDeterminism, PointBlockSweepsAreThreadCountInvariant) {
  Rng rng(28);
  const la::Bsr3 m = random_block_spd(rng, 80, 5);
  std::vector<idx> all_dofs(static_cast<std::size_t>(m.rows()));
  for (idx i = 0; i < m.rows(); ++i) all_dofs[i] = i;
  const la::NodeBlockMap map = la::node_block_map(all_dofs);
  const la::BsrOperator op(m, map);
  const std::vector<real> inv = m.inverted_block_diagonal();
  const std::vector<real> b = random_vec(rng, m.rows());
  const std::vector<real> x0 = random_vec(rng, m.rows());

  auto run = [&] {
    std::vector<real> xj = x0;
    la::pointblock_jacobi_sweep<3>(la::SerialBackend{}, op, inv, 0.8, b, xj);
    std::vector<real> xc = x0;
    la::pointblock_chebyshev_sweep<3>(la::SerialBackend{}, op, inv, 3, 0.1,
                                      2.0, b, xc);
    xj.insert(xj.end(), xc.begin(), xc.end());
    return xj;
  };
  const std::vector<real> ref = with_threads(kThreadCounts[0], run);
  for (std::size_t t = 1; t < std::size(kThreadCounts); ++t) {
    expect_bitwise_equal(with_threads(kThreadCounts[t], run), ref,
                         "point-block sweeps");
  }
}

}  // namespace
}  // namespace prom
