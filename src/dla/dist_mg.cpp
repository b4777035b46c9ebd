#include "dla/dist_mg.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "common/flops.h"
#include "dla/dist_setup.h"
#include "dla/dist_vec.h"
#include "dla/parx_backend.h"
#include "la/krylov_any.h"
#include "la/vec.h"
#include "mg/cycle_any.h"
#include "obs/trace.h"

namespace prom::dla {
namespace {

/// The one format dispatch of the solve phase: calls f with level `lv`'s
/// operator in `format`, wrapped as a DistOperatorRef. The node-block and
/// matrix-free views exist only on hierarchies built with that format.
template <class F>
auto with_operator(const DistMgLevel& lv, mg::MatrixFormat format,
                   const F& f) {
  if (format == mg::MatrixFormat::kBsr3) {
    PROM_CHECK_MSG(lv.a_bsr != nullptr,
                   "MatrixFormat::kBsr3 requires a hierarchy built with it");
    return f(DistOperatorRef(*lv.a_bsr));
  }
  if (format == mg::MatrixFormat::kMf) {
    PROM_CHECK_MSG(lv.a_mf != nullptr,
                   "MatrixFormat::kMf requires a hierarchy built with it");
    return f(DistOperatorRef(*lv.a_mf));
  }
  return f(DistOperatorRef(lv.a));
}

/// The format smoothing applies A in: the node-block view when the level
/// has one, else CSR. Smoothing never runs matrix-free.
mg::MatrixFormat smooth_format(const DistMgLevel& lv) {
  return lv.a_bsr != nullptr ? mg::MatrixFormat::kBsr3
                             : mg::MatrixFormat::kCsr;
}

/// The format the cycle's residuals apply A in: the matrix-free view when
/// the level has one, else as smoothing.
mg::MatrixFormat apply_format(const DistMgLevel& lv) {
  return lv.a_mf != nullptr ? mg::MatrixFormat::kMf : smooth_format(lv);
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
  void smooth(int l, la::BlockCRef b, la::BlockRef x) const {
    h->level(l).smooth(*comm, b, x);
  }
  void apply_a(int l, la::BlockCRef x, la::BlockRef y) const {
    const DistMgLevel& lv = h->level(l);
    with_operator(lv, apply_format(lv),
                  [&](const auto& a) { a.apply(*comm, x, y); });
  }
  void restrict_to(int l, la::BlockCRef xf, la::BlockRef xc) const {
    h->level(l).r.spmv(*comm, xf, xc);
  }
  void prolong(int l, la::BlockCRef xc, la::BlockRef xf) const {
    h->level(l).r.spmv_transpose(*comm, xc, xf);
  }
  void coarse_solve(la::BlockCRef b, la::BlockRef x) const {
    const int nl = h->num_levels();
    const DistMgLevel& lv = h->level(nl - 1);
    if (lv.direct == nullptr && lv.direct_lu == nullptr) {
      // Single-level hierarchy: a few smoothing steps stand in.
      for (int s = 0; s < 4; ++s) lv.smooth(*comm, b, x);
      return;
    }
    // Redundant coarse solve (§5 — the coarsest problem is constant-size):
    // one allgatherv carries every column, one factor-solve serves them
    // all in place, and each rank keeps its slice.
    la::MultiVec full = dist_gather_all_mv(*comm, lv.a.row_dist(), b);
    mg::solve_coarsest(lv.direct.get(), lv.direct_lu.get(), full, full);
    const idx b0 = lv.a.row_dist().begin(comm->rank());
    for (int j = 0; j < full.cols(); ++j) {
      std::copy(full.col_data(j) + b0, full.col_data(j) + b0 + lv.local_n(),
                x.col_data(j));
    }
  }
};

}  // namespace

void DistMgLevel::smooth(parx::Comm& comm, la::BlockCRef b_local,
                         la::BlockRef x_local) const {
  const ParxBackend be{&comm};
  with_operator(*this, smooth_format(*this), [&](const auto& op) {
    // The masked flag is a level property, not a rank property, so every
    // rank runs the same collective sweep either way.
    if (smooth_masked) {
      smoother.smooth_rows(be, op, smooth_rows_local, b_local, x_local);
    } else {
      smoother.smooth(be, op, b_local, x_local);
    }
  });
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

  // Operators: the fine matrix and the restrictions are sliced from the
  // serial inputs (each rank extracts its rows only); every coarse
  // operator is the distributed Galerkin product of the previous one.
  for (int l = 0; l < nl; ++l) {
    const obs::Span span("setup.level", l);
    DistMgLevel& dl = h.levels_[l];
    if (l == 0) {
      dl.a = DistCsr::from_global_permuted(comm, serial.level(0).a, dists[0],
                                           dists[0], h.perms_[0],
                                           h.perms_[0]);
    } else {
      dl.r = DistCsr::from_global_permuted(comm, serial.level(l).r, dists[l],
                                           dists[l - 1], h.perms_[l],
                                           h.perms_[l - 1]);
      const FlopWindow window;
      dl.a = dist_galerkin_product(comm, dl.r, h.levels_[l - 1].a,
                                   h.perms_[l - 1]);
      h.galerkin_flops_ += window.flops();
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
    obs::counter_add("mg.nnz",
                     static_cast<double>(dl.a.local_matrix().vals.size()), l);
  }

  // Smoothers / coarse factorization: the serial hierarchy's level setup,
  // on this rank's local diagonal block and the gathered coarsest matrix.
  for (int l = 0; l < nl; ++l) {
    DistMgLevel& dl = h.levels_[l];
    if (l + 1 == nl && nl > 1) {
      mg::factor_coarsest(dist_gather_matrix(comm, dl.a), mo.coarse_solver,
                          dl.direct, dl.direct_lu);
      continue;
    }
    dl.smoother = mg::level_smoother(ParxBackend{&comm}, DistOperatorRef(dl.a),
                                     dl.a.local_diagonal_block(), mo,
                                     dl.a.row_dist().begin(rank));
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
  }
  return h;
}

void dist_vcycle(parx::Comm& comm, const DistHierarchy& h, int level,
                 std::span<const real> b_local, std::span<real> x_local) {
  mg::vcycle_any(DistCycleView{&comm, &h}, level, b_local, x_local);
}

std::vector<real> dist_fmg_cycle(parx::Comm& comm, const DistHierarchy& h,
                                 std::span<const real> b_local) {
  std::vector<real> x(b_local.size());
  mg::fmg_any(DistCycleView{&comm, &h}, b_local, x);
  return x;
}

void DistMgPreconditioner::apply(parx::Comm& comm, la::BlockCRef x_local,
                                 la::BlockRef y_local) const {
  mg::apply_cycle(DistCycleView{&comm, h_}, kind_, x_local, y_local);
}

std::vector<la::KrylovResult> dist_mg_pcg_solve_mv(
    parx::Comm& comm, const DistHierarchy& h, la::BlockCRef b_local,
    la::BlockRef x_local, const mg::MgSolveOptions& opts,
    la::KrylovWorkspace* ws) {
  const DistMgPreconditioner precond(h, opts.cycle);
  const DistOperator* m = &precond;
  return with_operator(h.level(0), opts.format, [&](const DistOperator& a) {
    return la::pcg_any(ParxBackend{&comm}, a, m, b_local, x_local,
                       mg::to_krylov_options(opts), ws);
  });
}

la::KrylovResult dist_mg_pcg_solve(parx::Comm& comm, const DistHierarchy& h,
                                   std::span<const real> b_local,
                                   std::span<real> x_local,
                                   const mg::MgSolveOptions& opts) {
  return dist_mg_pcg_solve_mv(comm, h, b_local, x_local, opts).front();
}

la::KrylovResult dist_mg_krylov_solve(parx::Comm& comm,
                                      const DistHierarchy& h,
                                      std::span<const real> b_local,
                                      std::span<real> x_local,
                                      const mg::MgSolveOptions& opts) {
  if (opts.krylov == la::KrylovKind::kPcg) {
    return dist_mg_pcg_solve(comm, h, b_local, x_local, opts);
  }
  const DistMgPreconditioner precond(h, opts.cycle);
  return with_operator(h.level(0), opts.format, [&](const auto& a) {
    if (opts.krylov == la::KrylovKind::kGmres) {
      return dist_gmres(comm, a, &precond, b_local, x_local,
                        mg::to_gmres_options(opts));
    }
    return dist_bicgstab(comm, a, &precond, b_local, x_local,
                         mg::to_krylov_options(opts));
  });
}

}  // namespace prom::dla
