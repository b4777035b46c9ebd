#include "dla/dist_mg.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "common/flops.h"
#include "dla/dist_setup.h"
#include "dla/dist_vec.h"
#include "dla/parx_backend.h"
#include "la/krylov_any.h"
#include "la/smoother_kernels.h"
#include "la/smoothers.h"
#include "la/vec.h"
#include "mg/cycle_any.h"
#include "obs/trace.h"
#include "partition/greedy.h"

namespace prom::dla {
namespace {

graph::Graph graph_of_pattern(const la::Csr& a) {
  std::vector<std::pair<idx, idx>> edges;
  for (idx i = 0; i < a.nrows; ++i) {
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      if (a.colidx[k] > i && a.colidx[k] < a.nrows) {
        edges.emplace_back(i, a.colidx[k]);
      }
    }
  }
  return graph::Graph::from_edges(a.nrows, edges);
}

/// Redundant dense factorization of the (gathered, constant-size) coarsest
/// operator, with the same diagonal-shift escalation as the serial build.
std::unique_ptr<la::DenseLdlt> factor_coarse(const la::Csr& a) {
  la::DenseMatrix dense(a.nrows, a.ncols);
  for (idx i = 0; i < a.nrows; ++i) {
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      dense(i, a.colidx[k]) = a.vals[k];
    }
  }
  auto direct = std::make_unique<la::DenseLdlt>(dense);
  if (!direct->ok()) {
    real max_diag = 1;
    for (idx i = 0; i < a.nrows; ++i) {
      max_diag = std::max(max_diag, std::abs(dense(i, i)));
    }
    for (real shift = 1e-12 * max_diag; !direct->ok(); shift *= 10) {
      la::DenseMatrix shifted = dense;
      for (idx i = 0; i < a.nrows; ++i) shifted(i, i) += shift;
      *direct = la::DenseLdlt(shifted);
      PROM_CHECK(shift < 1e30);
    }
  }
  return direct;
}

/// LU counterpart of factor_coarse for non-symmetric coarsest operators:
/// partial pivoting needs no shift escalation.
std::unique_ptr<la::DenseLu> factor_coarse_lu(const la::Csr& a) {
  la::DenseMatrix dense(a.nrows, a.ncols);
  for (idx i = 0; i < a.nrows; ++i) {
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      dense(i, a.colidx[k]) = a.vals[k];
    }
  }
  auto direct = std::make_unique<la::DenseLu>(dense);
  PROM_CHECK_MSG(direct->ok(),
                 "coarsest-level LU factorization failed (singular)");
  return direct;
}

/// The active-subset communicator of an agglomerated level: ranks
/// [0, active). Pure-local construction (Comm::split), so building it per
/// coarse solve costs one small allocation and no traffic.
parx::Comm active_subcomm(parx::Comm& comm, int active) {
  std::vector<int> members(static_cast<std::size_t>(active));
  std::iota(members.begin(), members.end(), 0);
  return comm.split(members);
}

/// The first `active` ranks' slice of an agglomerated RowDist (trailing
/// ranks own empty ranges, so truncating the offsets is exact).
RowDist active_rowdist(const RowDist& dist, int active) {
  PROM_CHECK(dist.offsets[static_cast<std::size_t>(active)] ==
             dist.global_size());
  return RowDist{std::vector<idx>(
      dist.offsets.begin(), dist.offsets.begin() + active + 1)};
}

/// Even row split of an agglomerated level over its first `active` ranks,
/// with every split point snapped *up* to the next node boundary so node
/// blocks (DistBsr, block size `bs`) never straddle ranks. Trailing ranks
/// own empty ranges. The node id of new row i is free_dofs[perm[i]] / bs,
/// exactly the grouping DistBsr::build uses; at bs = 1 every row is its
/// own node and the split is exactly even.
RowDist agglom_rowdist(const std::vector<idx>& free_dofs,
                       const std::vector<idx>& perm, int active, int nranks,
                       int bs) {
  const idx n = static_cast<idx>(perm.size());
  const auto node_of = [&](idx i) { return free_dofs[perm[i]] / bs; };
  std::vector<idx> off(static_cast<std::size_t>(nranks) + 1, n);
  off[0] = 0;
  for (int r = 1; r < active; ++r) {
    idx cut = std::max<idx>(
        off[r - 1],
        static_cast<idx>(static_cast<std::int64_t>(n) * r / active));
    while (cut > 0 && cut < n && node_of(cut) == node_of(cut - 1)) ++cut;
    off[static_cast<std::size_t>(r)] = cut;
  }
  return RowDist{std::move(off)};
}

/// Adapts the distributed hierarchy to the generic cycle templates
/// (mg/cycle_any.h): the one V-cycle / FMG implementation runs on local
/// blocks, and only these level operations communicate.
struct DistCycleView {
  parx::Comm* comm;
  const DistHierarchy* h;

  int num_levels() const { return h->num_levels(); }
  idx local_n(int l) const { return h->level(l).local_n(); }
  int pre_smooth() const { return h->pre_smooth; }
  int post_smooth() const { return h->post_smooth; }
  /// Agglomeration hook for the cycle templates: ranks outside level l's
  /// active set skip the cycle body at and below l (they hold no rows
  /// and no plan roles there; their part is the caller's boundary
  /// restriction/prolongation exchange).
  bool level_inactive(int l) const {
    return comm->rank() >= h->active_ranks(l);
  }
  void smooth(int l, std::span<const real> b, std::span<real> x) const {
    h->level(l).smooth(*comm, b, x);
  }
  void apply_a(int l, std::span<const real> x, std::span<real> y) const {
    const DistMgLevel& lv = h->level(l);
    if (lv.a_mf != nullptr) {
      lv.a_mf->spmv(*comm, x, y);
    } else if (lv.a_bsr != nullptr) {
      lv.a_bsr->spmv(*comm, x, y);
    } else {
      lv.a.spmv(*comm, x, y);
    }
  }
  void restrict_to(int l, std::span<const real> xf, std::span<real> xc) const {
    h->level(l).r.spmv(*comm, xf, xc);
  }
  void prolong(int l, std::span<const real> xc, std::span<real> xf) const {
    h->level(l).r.spmv_transpose(*comm, xc, xf);
  }
  void coarse_solve(std::span<const real> b, std::span<real> x) const {
    const int nl = h->num_levels();
    const DistMgLevel& lv = h->level(nl - 1);
    if (lv.direct != nullptr || lv.direct_lu != nullptr) {
      // Redundant coarse solve: gather, factor-solve locally, keep my
      // slice (§5 — the coarsest problem is constant-size). When the
      // coarsest level is agglomerated, only its active ranks reach this
      // point (the cycle skips idle ranks), so the gather collective must
      // run over the active subset alone.
      const int active = h->active_ranks(nl - 1);
      std::vector<real> b_full;
      if (active < comm->size()) {
        parx::Comm sub = active_subcomm(*comm, active);
        b_full =
            dist_gather_all(sub, active_rowdist(lv.a.row_dist(), active), b);
      } else {
        b_full = dist_gather_all(*comm, lv.a.row_dist(), b);
      }
      std::vector<real> x_full(b_full.size());
      if (lv.direct != nullptr) {
        lv.direct->solve(b_full, x_full);
      } else {
        lv.direct_lu->solve(b_full, x_full);
      }
      const idx b0 = lv.a.row_dist().begin(comm->rank());
      for (idx i = 0; i < lv.local_n(); ++i) x[i] = x_full[b0 + i];
    } else {
      // Single-level hierarchy: a few smoothing steps stand in.
      for (int s = 0; s < 4; ++s) lv.smooth(*comm, b, x);
    }
  }

  // Column-blocked level operations (MultiCycleView); column j bitwise
  // equals the scalar operation on that column.
  void smooth_mv(int l, const la::MultiVec& b, la::MultiVec& x) const {
    h->level(l).smooth_mv(*comm, b, x);
  }
  void apply_a_mv(int l, const la::MultiVec& x, la::MultiVec& y) const {
    const DistMgLevel& lv = h->level(l);
    if (lv.a_mf != nullptr) {
      lv.a_mf->spmm(*comm, x, y);
    } else if (lv.a_bsr != nullptr) {
      lv.a_bsr->spmm(*comm, x, y);
    } else {
      lv.a.spmm(*comm, x, y);
    }
  }
  void restrict_to_mv(int l, const la::MultiVec& xf, la::MultiVec& xc) const {
    h->level(l).r.spmm(*comm, xf, xc);
  }
  void prolong_mv(int l, const la::MultiVec& xc, la::MultiVec& xf) const {
    h->level(l).r.spmm_transpose(*comm, xc, xf);
  }
  void coarse_solve_mv(const la::MultiVec& b, la::MultiVec& x) const {
    const int nl = h->num_levels();
    const DistMgLevel& lv = h->level(nl - 1);
    if (lv.direct != nullptr || lv.direct_lu != nullptr) {
      // One allgatherv carries every column and one factor-solve serves
      // them all, in place. Same active-subset rule as the scalar path.
      const int active = h->active_ranks(nl - 1);
      la::MultiVec b_full;
      if (active < comm->size()) {
        parx::Comm sub = active_subcomm(*comm, active);
        b_full = dist_gather_all_mv(
            sub, active_rowdist(lv.a.row_dist(), active), b);
      } else {
        b_full = dist_gather_all_mv(*comm, lv.a.row_dist(), b);
      }
      const idx n = b_full.rows();
      const int k = b_full.cols();
      const std::span<real> full(b_full.data(),
                                 static_cast<std::size_t>(n) * k);
      if (lv.direct != nullptr) {
        lv.direct->solve_mv(full, full, k, n);
      } else {
        lv.direct_lu->solve_mv(full, full, k, n);
      }
      const idx b0 = lv.a.row_dist().begin(comm->rank());
      for (int j = 0; j < k; ++j) {
        const real* fj = b_full.col_data(j);
        real* xj = x.col_data(j);
        for (idx i = 0; i < lv.local_n(); ++i) xj[i] = fj[b0 + i];
      }
    } else {
      for (int s = 0; s < 4; ++s) lv.smooth_mv(*comm, b, x);
    }
  }
};

}  // namespace

namespace {

/// Smoother dispatch over the operator view: the sweeps are generic in
/// the operator, so the CSR and node-block paths share one body.
template <class Op>
void smooth_with(const DistMgLevel& lv, parx::Comm& comm, const Op& op,
                 std::span<const real> b_local, std::span<real> x_local) {
  const ParxBackend be{&comm};
  switch (lv.kind) {
    case mg::SmootherKind::kJacobi:
      la::jacobi_sweep(be, op, lv.inv_diag, lv.omega, b_local, x_local);
      break;
    case mg::SmootherKind::kChebyshev:
      la::chebyshev_sweep(be, op, lv.inv_diag, lv.cheby_degree, lv.cheby_lmin,
                          lv.cheby_lmax, b_local, x_local);
      break;
    default:
      la::block_jacobi_sweep(be, op, lv.blocks, lv.factors, lv.omega, b_local,
                             x_local);
      break;
  }
}

/// Column-blocked smoother dispatch; same structure as smooth_with over
/// the mv sweeps.
template <class Op>
void smooth_with_mv(const DistMgLevel& lv, parx::Comm& comm, const Op& op,
                    const la::MultiVec& b_local, la::MultiVec& x_local) {
  const ParxBackend be{&comm};
  switch (lv.kind) {
    case mg::SmootherKind::kJacobi:
      la::jacobi_sweep_mv(be, op, lv.inv_diag, lv.omega, b_local, x_local);
      break;
    case mg::SmootherKind::kChebyshev:
      la::chebyshev_sweep_mv(be, op, lv.inv_diag, lv.cheby_degree,
                             lv.cheby_lmin, lv.cheby_lmax, b_local, x_local);
      break;
    default:
      la::block_jacobi_sweep_mv(be, op, lv.blocks, lv.factors, lv.omega,
                                b_local, x_local);
      break;
  }
}

}  // namespace

void DistMgLevel::smooth(parx::Comm& comm, std::span<const real> b_local,
                         std::span<real> x_local) const {
  if (smooth_masked) {
    // Local smoothing (adaptive refinement levels): the full collective
    // sweep runs on a scratch copy — same exchanges on every rank, since
    // the masked flag is a level property, not a rank property — and only
    // the refined-region rows this rank owns take the update.
    std::vector<real> tmp(x_local.begin(), x_local.end());
    smooth_full(comm, b_local, tmp);
    for (idx i : smooth_rows_local) x_local[i] = tmp[i];
    return;
  }
  smooth_full(comm, b_local, x_local);
}

void DistMgLevel::smooth_full(parx::Comm& comm, std::span<const real> b_local,
                              std::span<real> x_local) const {
  if (a_bsr != nullptr) {
    smooth_with(*this, comm, DistBsrOperator(*a_bsr), b_local, x_local);
  } else {
    smooth_with(*this, comm, DistCsrOperator(a), b_local, x_local);
  }
}

void DistMgLevel::smooth_mv(parx::Comm& comm, const la::MultiVec& b_local,
                            la::MultiVec& x_local) const {
  if (smooth_masked) {
    la::MultiVec tmp = x_local;
    smooth_full_mv(comm, b_local, tmp);
    for (int j = 0; j < x_local.cols(); ++j) {
      real* xj = x_local.col_data(j);
      const real* tj = tmp.col_data(j);
      for (idx i : smooth_rows_local) xj[i] = tj[i];
    }
    return;
  }
  smooth_full_mv(comm, b_local, x_local);
}

void DistMgLevel::smooth_full_mv(parx::Comm& comm, const la::MultiVec& b_local,
                                 la::MultiVec& x_local) const {
  if (a_bsr != nullptr) {
    smooth_with_mv(*this, comm, DistBsrOperator(*a_bsr), b_local, x_local);
  } else {
    smooth_with_mv(*this, comm, DistCsrOperator(a), b_local, x_local);
  }
}

std::vector<int> agglom_active_ranks(std::span<const idx> level_rows,
                                     int nranks, idx min_rows_per_rank) {
  std::vector<int> active(level_rows.size(), nranks);
  if (min_rows_per_rank <= 0) return active;
  for (std::size_t l = 1; l < level_rows.size(); ++l) {
    int a = active[l - 1];
    while (a > 1 && static_cast<std::int64_t>(level_rows[l]) <
                        static_cast<std::int64_t>(min_rows_per_rank) * a) {
      a = (a + 1) / 2;
    }
    active[l] = a;
  }
  return active;
}

DistHierarchy DistHierarchy::build(parx::Comm& comm,
                                   const mg::Hierarchy& serial,
                                   std::span<const idx> fine_vertex_owner,
                                   mg::MatrixFormat format,
                                   const MfProblem* mf) {
  PROM_CHECK_MSG(format != mg::MatrixFormat::kMf || mf != nullptr,
                 "MatrixFormat::kMf requires an MfProblem");
  const int bs = serial.block_size();
  PROM_CHECK_MSG(bs == 3 || format == mg::MatrixFormat::kCsr,
                 "node-block and matrix-free formats require block size 3");
  const int nl = serial.num_levels();
  const int p = comm.size();
  const int rank = comm.rank();
  const mg::MgOptions& mo = serial.options();
  DistHierarchy h;
  h.pre_smooth = mo.pre_smooth;
  h.post_smooth = mo.post_smooth;
  h.levels_.resize(static_cast<std::size_t>(nl));
  h.perms_.resize(static_cast<std::size_t>(nl));

  // Propagate dof ownership down the hierarchy via the MIS parent chain.
  // vertex_owner[l][v] = rank of vertex v at level l.
  std::vector<std::vector<idx>> vertex_owner(static_cast<std::size_t>(nl));
  vertex_owner[0].assign(fine_vertex_owner.begin(), fine_vertex_owner.end());
  for (int l = 1; l < nl; ++l) {
    const auto& sel = serial.level(l).selected_from_fine;
    vertex_owner[l].resize(sel.size());
    for (std::size_t c = 0; c < sel.size(); ++c) {
      vertex_owner[l][c] = vertex_owner[l - 1][sel[c]];
    }
  }

  std::vector<RowDist> dists(static_cast<std::size_t>(nl));
  for (int l = 0; l < nl; ++l) {
    const mg::MgLevel& lv = serial.level(l);
    const idx n = static_cast<idx>(lv.free_dofs.size());
    // Owner of free dof i = owner of its vertex; stable-sort dofs by owner.
    std::vector<idx> owner(static_cast<std::size_t>(n));
    for (idx i = 0; i < n; ++i) {
      owner[i] = vertex_owner[l][lv.free_dofs[i] / bs];
    }
    std::vector<idx>& perm = h.perms_[l];
    perm.resize(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), idx{0});
    std::stable_sort(perm.begin(), perm.end(),
                     [&](idx x, idx y) { return owner[x] < owner[y]; });
    std::vector<idx> sorted_owner(static_cast<std::size_t>(n));
    for (idx i = 0; i < n; ++i) sorted_owner[i] = owner[perm[i]];
    dists[l] = RowDist::from_sorted_owners(sorted_owner, p);
  }

  // Coarse-level agglomeration (MgOptions::agglom_min_rows): evaluate the
  // active-rank policy against the natural (vertex-ownership) level sizes,
  // then give every agglomerated level a final distribution that packs its
  // rows onto ranks [0, active) in even node-aligned slices. The natural
  // distributions stay in `dists` — the Galerkin chain runs on them so the
  // coarse operators (and galerkin_flops) are independent of the policy.
  std::vector<idx> level_rows(static_cast<std::size_t>(nl));
  for (int l = 0; l < nl; ++l) level_rows[l] = dists[l].global_size();
  h.active_ = agglom_active_ranks(level_rows, p, mo.agglom_min_rows);
  std::vector<RowDist> final_dists = dists;
  for (int l = 1; l < nl; ++l) {
    if (h.active_[l] < p) {
      final_dists[l] = agglom_rowdist(serial.level(l).free_dofs, h.perms_[l],
                                      h.active_[l], p, bs);
    }
  }

  // Operators: the fine matrix and the restrictions are sliced from the
  // serial inputs (each rank extracts its rows only); every coarse
  // operator is the distributed Galerkin product of the previous one —
  // always on the natural distributions. An agglomerated level then ships
  // its operator to the active subset (dist_redistribute) and rebuilds its
  // restriction on the final layouts from the replicated serial R; the
  // natural operator is kept aside as the next Galerkin input.
  DistCsr nat_hold;
  const DistCsr* nat_prev = nullptr;
  for (int l = 0; l < nl; ++l) {
    const obs::Span span("setup.level", l);
    DistMgLevel& dl = h.levels_[l];
    if (l == 0) {
      dl.a = DistCsr::from_global_permuted(comm, serial.level(0).a, dists[0],
                                           dists[0], h.perms_[0],
                                           h.perms_[0]);
      nat_prev = &dl.a;
    } else {
      DistCsr r_nat = DistCsr::from_global_permuted(
          comm, serial.level(l).r, dists[l], dists[l - 1], h.perms_[l],
          h.perms_[l - 1]);
      const FlopWindow window;
      DistCsr a_nat = dist_galerkin_product(comm, r_nat, *nat_prev,
                                            h.perms_[l - 1]);
      h.galerkin_flops_ += window.flops();
      if (h.active_[l] < p) {
        {
          const obs::Span rspan("agglom.redistribute", l);
          dl.a = dist_redistribute(comm, a_nat, final_dists[l],
                                   final_dists[l]);
        }
        dl.r = DistCsr::from_global_permuted(
            comm, serial.level(l).r, final_dists[l], final_dists[l - 1],
            h.perms_[l], h.perms_[l - 1]);
        nat_hold = std::move(a_nat);
        nat_prev = &nat_hold;
      } else {
        dl.a = std::move(a_nat);
        dl.r = std::move(r_nat);
        nat_prev = &dl.a;
      }
    }
    if (format == mg::MatrixFormat::kBsr3) {
      // Node-block view for the solve phase; the setup above stays CSR so
      // both formats see bit-identical operators.
      dl.a_bsr = std::make_unique<DistBsr>(DistBsr::build(
          comm, dl.a, h.perms_[l], serial.level(l).free_dofs));
    }
    if (format == mg::MatrixFormat::kMf && l == 0) {
      // Matrix-free fine-level view over dl.a's layout and exchange plan;
      // coarse levels stay assembled (Galerkin products need entries).
      dl.a_mf = std::make_unique<DistMf>(
          DistMf::build(comm, *mf, dl.a, h.perms_[0]));
    }
    // Level-resolved size metrics: the gauge is identical on every rank
    // (last-write merge keeps one copy); local nnz counters sum-merge
    // across ranks into the global operator nnz.
    obs::gauge_set("mg.rows", static_cast<double>(dists[l].global_size()), l);
    obs::gauge_set("mg.active_ranks", static_cast<double>(h.active_[l]), l);
    obs::counter_add("mg.nnz",
                     static_cast<double>(dl.a.local_matrix().vals.size()), l);
  }

  // Smoothers / coarse factorization.
  for (int l = 0; l < nl; ++l) {
    DistMgLevel& dl = h.levels_[l];
    const bool coarsest = l + 1 == nl;
    if (coarsest && nl > 1) {
      // The coarsest operator has constant size (§5): gather it and
      // factor redundantly on every rank — LU when the serial options ask
      // for the non-symmetric coarse solve, LDL^T otherwise.
      if (mo.coarse_solver == mg::CoarseSolverKind::kDenseLu) {
        dl.direct_lu = factor_coarse_lu(dist_gather_matrix(comm, dl.a));
      } else {
        dl.direct = factor_coarse(dist_gather_matrix(comm, dl.a));
      }
      continue;
    }
    dl.kind = mo.smoother == mg::SmootherKind::kSymGaussSeidel
                  ? mg::SmootherKind::kBlockJacobi
                  : mo.smoother;
    dl.omega = mo.omega;
    dl.local_diag = dl.a.local_diagonal_block();
    // Local-smoothing mask (adaptive refinement levels): this rank's
    // slice of the serial MgLevel::smooth_rows, in local row numbering.
    // The masked flag is a property of the serial level, so it is
    // identical on every rank and the collective sweep schedule agrees.
    const mg::MgLevel& sl = serial.level(l);
    if (!sl.smooth_rows.empty()) {
      dl.smooth_masked = true;
      std::vector<char> in_mask(sl.free_dofs.size(), 0);
      for (idx i : sl.smooth_rows) in_mask[i] = 1;
      const RowDist& rd = dl.a.row_dist();
      const idx b0 = rd.begin(rank);
      const idx nloc = rd.local_size(rank);
      for (idx i = 0; i < nloc; ++i) {
        if (in_mask[h.perms_[l][b0 + i]]) dl.smooth_rows_local.push_back(i);
      }
    }
    switch (dl.kind) {
      case mg::SmootherKind::kJacobi:
        dl.inv_diag = la::inverted_diagonal(dl.local_diag);
        break;
      case mg::SmootherKind::kChebyshev: {
        dl.inv_diag = la::inverted_diagonal(dl.local_diag);
        dl.cheby_degree = std::max(1, mo.cheby_degree);
        const real lambda = la::estimate_lambda_max(
            ParxBackend{&comm}, DistCsrOperator(dl.a), dl.inv_diag,
            dl.a.row_dist().begin(rank));
        dl.cheby_lmax = 1.1 * std::max(lambda, real{1e-12});
        dl.cheby_lmin = dl.cheby_lmax / 30;
        break;
      }
      default:
        dl.blocks = partition::block_jacobi_blocks(
            graph_of_pattern(dl.local_diag), mo.bj_blocks_per_1000);
        dl.factors = la::factor_diagonal_blocks(dl.local_diag, dl.blocks);
        break;
    }
  }
  return h;
}

void dist_vcycle(parx::Comm& comm, const DistHierarchy& h, int level,
                 std::span<const real> b_local, std::span<real> x_local) {
  mg::vcycle_any(DistCycleView{&comm, &h}, level, b_local, x_local);
}

std::vector<real> dist_fmg_cycle(parx::Comm& comm, const DistHierarchy& h,
                                 std::span<const real> b_local) {
  return mg::fmg_any(DistCycleView{&comm, &h}, b_local);
}

void DistMgPreconditioner::apply(parx::Comm& comm,
                                 std::span<const real> x_local,
                                 std::span<real> y_local) const {
  mg::apply_cycle(DistCycleView{&comm, h_}, kind_, x_local, y_local);
}

void DistMgPreconditioner::apply_mv(parx::Comm& comm,
                                    const la::MultiVec& x_local,
                                    la::MultiVec& y_local) const {
  mg::apply_cycle_mv(DistCycleView{&comm, h_}, kind_, x_local, y_local);
}

la::KrylovResult dist_mg_pcg_solve(parx::Comm& comm, const DistHierarchy& h,
                                   std::span<const real> b_local,
                                   std::span<real> x_local,
                                   const mg::MgSolveOptions& opts) {
  const DistMgPreconditioner precond(h, opts.cycle);
  if (opts.format == mg::MatrixFormat::kBsr3) {
    PROM_CHECK_MSG(h.level(0).a_bsr != nullptr,
                   "MatrixFormat::kBsr3 requires a hierarchy built with it");
    const DistBsrOperator a(*h.level(0).a_bsr);
    return dist_pcg(comm, a, &precond, b_local, x_local,
                    mg::to_krylov_options(opts));
  }
  if (opts.format == mg::MatrixFormat::kMf) {
    PROM_CHECK_MSG(h.level(0).a_mf != nullptr,
                   "MatrixFormat::kMf requires a hierarchy built with it");
    const DistMfOperator a(*h.level(0).a_mf);
    return dist_pcg(comm, a, &precond, b_local, x_local,
                    mg::to_krylov_options(opts));
  }
  const DistCsrOperator a(h.level(0).a);
  return dist_pcg(comm, a, &precond, b_local, x_local,
                  mg::to_krylov_options(opts));
}

std::vector<la::KrylovResult> dist_mg_pcg_solve_mv(
    parx::Comm& comm, const DistHierarchy& h, const la::MultiVec& b_local,
    la::MultiVec& x_local, const mg::MgSolveOptions& opts,
    la::KrylovWorkspace* ws) {
  const DistMgPreconditioner precond(h, opts.cycle);
  if (opts.format == mg::MatrixFormat::kBsr3) {
    PROM_CHECK_MSG(h.level(0).a_bsr != nullptr,
                   "MatrixFormat::kBsr3 requires a hierarchy built with it");
    const DistBsrOperator a(*h.level(0).a_bsr);
    return dist_pcg_multi(comm, a, &precond, b_local, x_local,
                          mg::to_krylov_options(opts), ws);
  }
  if (opts.format == mg::MatrixFormat::kMf) {
    PROM_CHECK_MSG(h.level(0).a_mf != nullptr,
                   "MatrixFormat::kMf requires a hierarchy built with it");
    const DistMfOperator a(*h.level(0).a_mf);
    return dist_pcg_multi(comm, a, &precond, b_local, x_local,
                          mg::to_krylov_options(opts), ws);
  }
  const DistCsrOperator a(h.level(0).a);
  return dist_pcg_multi(comm, a, &precond, b_local, x_local,
                        mg::to_krylov_options(opts), ws);
}

namespace {

la::KrylovResult run_nonsym(parx::Comm& comm, const DistOperator& a,
                            const DistOperator& precond,
                            std::span<const real> b_local,
                            std::span<real> x_local,
                            const mg::MgSolveOptions& opts) {
  if (opts.krylov == la::KrylovKind::kGmres) {
    return dist_gmres(comm, a, &precond, b_local, x_local,
                      mg::to_gmres_options(opts));
  }
  return dist_bicgstab(comm, a, &precond, b_local, x_local,
                       mg::to_krylov_options(opts));
}

}  // namespace

la::KrylovResult dist_mg_krylov_solve(parx::Comm& comm,
                                      const DistHierarchy& h,
                                      std::span<const real> b_local,
                                      std::span<real> x_local,
                                      const mg::MgSolveOptions& opts) {
  if (opts.krylov == la::KrylovKind::kPcg) {
    return dist_mg_pcg_solve(comm, h, b_local, x_local, opts);
  }
  const DistMgPreconditioner precond(h, opts.cycle);
  if (opts.format == mg::MatrixFormat::kBsr3) {
    PROM_CHECK_MSG(h.level(0).a_bsr != nullptr,
                   "MatrixFormat::kBsr3 requires a hierarchy built with it");
    const DistBsrOperator a(*h.level(0).a_bsr);
    return run_nonsym(comm, a, precond, b_local, x_local, opts);
  }
  if (opts.format == mg::MatrixFormat::kMf) {
    PROM_CHECK_MSG(h.level(0).a_mf != nullptr,
                   "MatrixFormat::kMf requires a hierarchy built with it");
    const DistMfOperator a(*h.level(0).a_mf);
    return run_nonsym(comm, a, precond, b_local, x_local, opts);
  }
  const DistCsrOperator a(h.level(0).a);
  return run_nonsym(comm, a, precond, b_local, x_local, opts);
}

}  // namespace prom::dla
