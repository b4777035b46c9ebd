// Gates for the latency-hiding halo exchange: the interior/boundary split
// is a true partition with interior rows touching no ghost column, and the
// overlapped schedule (post sends, compute interior, drain peers in
// arrival order, finish boundary) gives the bits of an independent
// reference — the serial CSR product for spmv/residual, the distributed
// CSR operator for the node-block BSR format — at 1/2/8 kernel threads,
// for single vectors and column blocks, and whatever order peers' sends
// arrive in.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "app/driver.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dla/dist_bsr.h"
#include "dla/dist_csr.h"
#include "dla/dist_mg.h"
#include "dla/dist_vec.h"
#include "dla/halo.h"
#include "fem/assembly.h"
#include "mg/hierarchy.h"
#include "partition/rcb.h"

namespace prom::dla {
namespace {

/// Random sparse matrix with a full diagonal and `extra` couplings per
/// row at varied strides, so block-distributed rows get ghost columns
/// from several peers.
la::Csr random_coupled(idx n, idx extra, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Triplet> t;
  for (idx i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0 + rng.next_real()});
    for (idx k = 0; k < extra; ++k) {
      const idx j = static_cast<idx>(rng.next_below(n));
      if (j != i) t.push_back({i, j, rng.next_real() - 0.5});
    }
  }
  return la::Csr::from_triplets(n, n, t);
}

std::vector<real> random_vec(idx n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real> v(static_cast<std::size_t>(n));
  for (real& x : v) x = rng.next_real() - 0.5;
  return v;
}

void expect_bitwise_equal(std::span<const real> a, std::span<const real> b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(real)), 0)
      << what << ": results differ bitwise";
}

/// Restores the kernel thread count when a test exits.
struct ThreadsGuard {
  ~ThreadsGuard() { common::set_kernel_threads(0); }
};

constexpr int kThreadCounts[] = {1, 2, 8};

// In the test names below, "Sync" stands for a schedule-free reference:
// the serial product, or for BSR3 the CSR operator of the same level.
class HaloRanks : public ::testing::TestWithParam<int> {};

TEST_P(HaloRanks, InteriorBoundarySplitIsAPartition) {
  const int p = GetParam();
  const idx n = 211;
  const la::Csr a = random_coupled(n, 6, 11);
  const RowDist dist = RowDist::block(n, p);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const DistCsr da(comm, a, dist, dist);
    const idx n_own = dist.local_size(comm.rank());
    const la::Csr& lm = da.local_matrix();
    std::vector<int> seen(static_cast<std::size_t>(lm.nrows), 0);
    for (idx i : da.interior_rows()) {
      ASSERT_GE(i, 0);
      ASSERT_LT(i, lm.nrows);
      seen[i] += 1;
      // Interior rows reference owned columns only.
      for (nnz_t k = lm.rowptr[i]; k < lm.rowptr[i + 1]; ++k) {
        EXPECT_LT(lm.colidx[k], n_own);
      }
    }
    for (idx i : da.boundary_rows()) {
      ASSERT_GE(i, 0);
      ASSERT_LT(i, lm.nrows);
      seen[i] += 1;
      // Boundary rows reference at least one ghost column.
      bool has_ghost = false;
      for (nnz_t k = lm.rowptr[i]; k < lm.rowptr[i + 1]; ++k) {
        has_ghost = has_ghost || lm.colidx[k] >= n_own;
      }
      EXPECT_TRUE(has_ghost);
    }
    // interior ∪ boundary covers every row exactly once.
    for (idx i = 0; i < lm.nrows; ++i) EXPECT_EQ(seen[i], 1);
    // Single rank has no ghosts at all.
    if (comm.size() == 1) {
      EXPECT_EQ(da.num_ghosts(), 0);
      EXPECT_EQ(static_cast<idx>(da.interior_rows().size()), lm.nrows);
    }
  });
}

// The distributed product and residual against the serial CSR kernels on
// the same rows: DistCsr keeps each row's storage order, so the overlapped
// exchange must reproduce the serial bits exactly, for one vector and for
// every column of a block.
TEST_P(HaloRanks, CsrOverlapMatchesSyncBitwise) {
  const int p = GetParam();
  const ThreadsGuard guard;
  const idx n = 193;
  constexpr int kCols = 3;
  const la::Csr a = random_coupled(n, 5, 23);
  std::vector<std::vector<real>> x, b, y_ref, r_ref;
  for (int j = 0; j < kCols; ++j) {
    x.push_back(random_vec(n, 3 + 10 * j));
    b.push_back(random_vec(n, 4 + 10 * j));
    y_ref.emplace_back(n);
    r_ref.emplace_back(n);
    a.spmv(x[j], y_ref[j]);
    a.residual(b[j], x[j], r_ref[j]);
  }
  const RowDist dist = RowDist::block(n, p);
  for (const int threads : kThreadCounts) {
    common::set_kernel_threads(threads);
    parx::Runtime::run(p, [&](parx::Comm& comm) {
      const DistCsr da(comm, a, dist, dist);
      const idx lo = dist.begin(comm.rank());
      const idx ln = dist.local_size(comm.rank());
      la::MultiVec xl(ln, kCols), bl(ln, kCols), y(ln, kCols), r(ln, kCols);
      for (int j = 0; j < kCols; ++j) {
        std::copy(x[j].begin() + lo, x[j].begin() + lo + ln,
                  xl.col(j).begin());
        std::copy(b[j].begin() + lo, b[j].begin() + lo + ln,
                  bl.col(j).begin());
      }
      da.spmm(comm, xl, y);
      da.residual(comm, bl, xl, r);
      for (int j = 0; j < kCols; ++j) {
        const std::span<const real> yj(y_ref[j].data() + lo, ln);
        const std::span<const real> rj(r_ref[j].data() + lo, ln);
        expect_bitwise_equal(y.col(j), yj, "csr spmm column");
        expect_bitwise_equal(r.col(j), rj, "csr residual column");
        std::vector<real> y1(ln), r1(ln);
        da.spmv(comm, xl.col(j), y1);
        da.residual(comm, bl.col(j), xl.col(j), r1);
        expect_bitwise_equal(y1, yj, "csr spmv");
        expect_bitwise_equal(r1, rj, "csr residual");
      }
    });
  }
}

// The transpose sums ghost contributions in a fixed peer order, which is
// not the serial order: it must stay within rounding of the serial A^T x,
// give the same bits at every kernel-thread count, and give column j of a
// block the bits of the single-vector transpose of that column.
TEST_P(HaloRanks, CsrTransposeOverlapMatchesSyncBitwise) {
  const int p = GetParam();
  const ThreadsGuard guard;
  const idx nrows = 150, ncols = 90;
  Rng rng(31);
  std::vector<la::Triplet> t;
  for (int k = 0; k < 700; ++k) {
    t.push_back({static_cast<idx>(rng.next_below(nrows)),
                 static_cast<idx>(rng.next_below(ncols)),
                 rng.next_real() - 0.5});
  }
  const la::Csr r = la::Csr::from_triplets(nrows, ncols, t);
  constexpr int kCols = 4;
  la::MultiVec x(nrows, kCols);
  for (int j = 0; j < kCols; ++j) {
    const auto xj = random_vec(nrows, 5 + j);
    std::copy(xj.begin(), xj.end(), x.col(j).begin());
  }
  const RowDist rows = RowDist::block(nrows, p);
  const RowDist cols = RowDist::block(ncols, p);
  std::vector<real> first;  // column-major result at the first count
  for (const int threads : kThreadCounts) {
    common::set_kernel_threads(threads);
    std::vector<real> got(static_cast<std::size_t>(ncols) * kCols);
    parx::Runtime::run(p, [&](parx::Comm& comm) {
      const DistCsr dr(comm, r, rows, cols);
      const idx lo = rows.begin(comm.rank());
      const idx ln = rows.local_size(comm.rank());
      const idx c0 = cols.begin(comm.rank());
      const idx cn = cols.local_size(comm.rank());
      la::MultiVec xl(ln, kCols), y(cn, kCols);
      for (int j = 0; j < kCols; ++j) {
        std::copy(x.col(j).begin() + lo, x.col(j).begin() + lo + ln,
                  xl.col(j).begin());
      }
      dr.spmv_transpose(comm, xl, y);
      for (int j = 0; j < kCols; ++j) {
        std::vector<real> y1(cn);
        dr.spmv_transpose(comm, xl.col(j), y1);
        expect_bitwise_equal(y.col(j), y1, "transpose block column");
        std::copy(y1.begin(), y1.end(),
                  got.begin() + static_cast<std::ptrdiff_t>(j) * ncols + c0);
      }
    });
    for (int j = 0; j < kCols; ++j) {
      std::vector<real> ref(static_cast<std::size_t>(ncols));
      r.spmv_transpose(x.col(j), ref);
      for (idx c = 0; c < ncols; ++c) {
        EXPECT_NEAR(got[static_cast<std::size_t>(j) * ncols + c], ref[c],
                    1e-13)
            << "column " << j << " entry " << c;
      }
    }
    if (first.empty()) first = got;
    expect_bitwise_equal(got, first, "transpose across thread counts");
  }
}

// The node-block format against the CSR operator of the same level: block
// columns are ordered by global position and padding contributes exact
// zeros, so every scalar row accumulates in DistCsr's storage order and
// the two distributed products agree bitwise.
TEST_P(HaloRanks, Bsr3OverlapMatchesSyncBitwise) {
  const int p = GetParam();
  const ThreadsGuard guard;
  // Real node-block operator: the fine-level elasticity stiffness of a
  // small box problem, distributed with an RCB vertex partition.
  const app::ModelProblem model = app::make_box_problem(5);
  fem::FeProblem fe(model.mesh, model.materials, model.dofmap);
  const fem::LinearSystem sys = fem::assemble_linear_system(fe);
  mg::MgOptions mopts;
  mopts.coarsest_max_dofs = 150;
  const mg::Hierarchy serial_h =
      mg::Hierarchy::build(model.mesh, model.dofmap, sys.stiffness, mopts);
  const auto owner = partition::rcb_partition(model.mesh.coords(), p);
  const idx n = static_cast<idx>(sys.rhs.size());
  constexpr int kCols = 4;
  for (const int threads : kThreadCounts) {
    common::set_kernel_threads(threads);
    parx::Runtime::run(p, [&](parx::Comm& comm) {
      const DistHierarchy dh = DistHierarchy::build(comm, serial_h, owner,
                                                    mg::MatrixFormat::kBsr3);
      ASSERT_NE(dh.level(0).a_bsr, nullptr);
      const DistBsr& da = *dh.level(0).a_bsr;
      const DistCsr& dc = dh.level(0).a;
      const auto& perm = dh.permutation(0);
      const idx lo = dc.row_dist().begin(comm.rank());
      const idx ln = dc.local_rows();
      la::MultiVec xl(ln, kCols), bl(ln, kCols);
      for (int j = 0; j < kCols; ++j) {
        const auto x = random_vec(n, 7 + 2 * j);
        const auto b = random_vec(n, 8 + 2 * j);
        for (idx i = 0; i < ln; ++i) {
          xl.col(j)[i] = x[perm[lo + i]];
          bl.col(j)[i] = b[perm[lo + i]];
        }
      }
      // Block rows partition into interior + boundary.
      EXPECT_EQ(static_cast<idx>(da.interior_brows().size() +
                                 da.boundary_brows().size()),
                da.local_matrix().nbrows);
      la::MultiVec y_bsr(ln, kCols), r_bsr(ln, kCols);
      la::MultiVec y_csr(ln, kCols), r_csr(ln, kCols);
      da.spmv(comm, xl, y_bsr);
      da.residual(comm, bl, xl, r_bsr);
      dc.spmv(comm, xl, y_csr);
      dc.residual(comm, bl, xl, r_csr);
      for (int j = 0; j < kCols; ++j) {
        expect_bitwise_equal(y_bsr.col(j), y_csr.col(j), "bsr3 spmm column");
        expect_bitwise_equal(r_bsr.col(j), r_csr.col(j),
                             "bsr3 residual column");
        std::vector<real> y1(ln), r1(ln);
        da.spmv(comm, xl.col(j), y1);
        da.residual(comm, bl.col(j), xl.col(j), r1);
        expect_bitwise_equal(y1, y_csr.col(j), "bsr3 spmv");
        expect_bitwise_equal(r1, r_csr.col(j), "bsr3 residual");
      }
    });
  }
}

// "pN" names let the CI rank matrix select one rank count per job with
// --gtest_filter='*/pN'.
INSTANTIATE_TEST_SUITE_P(Ranks, HaloRanks, ::testing::Values(1, 2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = "p";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(Halo, StaggeredPeerSendsDrainInArrivalOrder) {
  // Adversarial timing: before every exchange the ranks line up at a
  // barrier and then enter after a delay that rotates each round, so
  // messages arrive in a different order every round. Every operator the
  // solve phase runs — CSR, node-block BSR3, matrix-free, and the CSR
  // transpose — at k=1 and at k=4 must give the same bits in every round.
  const int p = 5;
  constexpr int kRounds = 4;
  constexpr int kCols = 4;
  constexpr int kOps = 4;
  const char* const names[kOps] = {"csr", "bsr3", "mf", "transpose"};
  const app::ModelProblem model = app::make_box_problem(4);
  fem::FeProblem fe(model.mesh, model.materials, model.dofmap);
  const fem::LinearSystem sys = fem::assemble_linear_system(fe);
  mg::MgOptions mopts;
  mopts.coarsest_max_dofs = 60;
  const mg::Hierarchy serial_h =
      mg::Hierarchy::build(model.mesh, model.dofmap, sys.stiffness, mopts);
  ASSERT_GE(serial_h.num_levels(), 2);
  const auto owner = partition::rcb_partition(model.mesh.coords(), p);
  const MfProblem mfp{&model.mesh, &model.materials, &model.dofmap, true};
  const idx n = static_cast<idx>(sys.rhs.size());
  la::MultiVec x(n, kCols);
  for (int j = 0; j < kCols; ++j) {
    const auto xj = random_vec(n, 9 + j);
    std::copy(xj.begin(), xj.end(), x.col(j).begin());
  }

  // out[op][round][rank]: that rank's k=1 results for every column, then
  // its k=4 result, column-major.
  using Runs = std::vector<std::vector<std::vector<real>>>;
  std::vector<Runs> out(kOps, Runs(kRounds, std::vector<std::vector<real>>(p)));
  for (const mg::MatrixFormat format :
       {mg::MatrixFormat::kBsr3, mg::MatrixFormat::kMf}) {
    parx::Runtime::run(p, [&](parx::Comm& comm) {
      const DistHierarchy dh =
          DistHierarchy::build(comm, serial_h, owner, format, &mfp);
      const DistMgLevel& l0 = dh.level(0);
      const auto& perm = dh.permutation(0);
      const idx lo = l0.a.row_dist().begin(comm.rank());
      const idx ln = l0.a.local_rows();
      la::MultiVec xl(ln, kCols);
      for (int j = 0; j < kCols; ++j) {
        for (idx i = 0; i < ln; ++i) xl.col(j)[i] = x.col(j)[perm[lo + i]];
      }
      // Transpose input: one value per owned coarse row of R.
      const DistCsr& r = dh.level(1).r;
      la::MultiVec xc(r.local_rows(), kCols);
      for (int j = 0; j < kCols; ++j) {
        for (idx i = 0; i < r.local_rows(); ++i) {
          const idx g = r.row_dist().begin(comm.rank()) + i;
          xc.col(j)[i] = std::sin(0.7 * static_cast<real>(g) + j);
        }
      }
      for (int round = 0; round < kRounds; ++round) {
        const int lag = (comm.rank() + round) % p;
        // Runs `apply` on each column alone and on the whole block, each
        // call entered after this round's stagger.
        const auto run = [&](int op, la::BlockCRef in, idx out_rows,
                             const auto& apply) {
          std::vector<real>& rec = out[op][round][comm.rank()];
          la::MultiVec y(out_rows, kCols);
          for (int j = 0; j <= kCols; ++j) {
            comm.barrier();
            std::this_thread::sleep_for(std::chrono::milliseconds(2 * lag));
            if (j < kCols) {
              std::vector<real> y1(static_cast<std::size_t>(out_rows));
              apply(in.col(j), y1);
              rec.insert(rec.end(), y1.begin(), y1.end());
            } else {
              apply(in, y);
              rec.insert(rec.end(), y.data(), y.data() + out_rows * kCols);
            }
          }
        };
        if (format == mg::MatrixFormat::kBsr3) {
          run(0, xl, ln, [&](la::BlockCRef in, la::BlockRef y) {
            l0.a.spmv(comm, in, y);
          });
          run(1, xl, ln, [&](la::BlockCRef in, la::BlockRef y) {
            l0.a_bsr->spmv(comm, in, y);
          });
          run(3, xc, r.col_dist().local_size(comm.rank()),
              [&](la::BlockCRef in, la::BlockRef y) {
                r.spmv_transpose(comm, in, y);
              });
        } else {
          run(2, xl, ln, [&](la::BlockCRef in, la::BlockRef y) {
            l0.a_mf->spmv(comm, in, y);
          });
        }
      }
    });
  }
  for (int op = 0; op < kOps; ++op) {
    for (int rank = 0; rank < p; ++rank) {
      ASSERT_FALSE(out[op][0][rank].empty()) << names[op] << " rank " << rank;
      for (int round = 1; round < kRounds; ++round) {
        expect_bitwise_equal(out[op][round][rank], out[op][0][rank],
                             names[op]);
      }
    }
  }
}

TEST(Halo, PlanCountsMatchGhosts) {
  const int p = 4;
  const idx n = 101;
  const la::Csr a = random_coupled(n, 4, 91);
  const RowDist dist = RowDist::block(n, p);
  parx::Runtime::run(p, [&](parx::Comm& comm) {
    const DistCsr da(comm, a, dist, dist);
    // Every ghost column is filled by exactly one peer's segment.
    EXPECT_EQ(da.halo_plan().recv_count(),
              static_cast<std::int64_t>(da.num_ghosts()));
    EXPECT_EQ(da.halo_plan().num_recv_peers() == 0, da.num_ghosts() == 0);
  });
}

}  // namespace
}  // namespace prom::dla
