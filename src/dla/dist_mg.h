// Distributed multigrid: mirrors a serial mg::Hierarchy's *grids* across
// virtual ranks and performs the matrix setup distributed. Dofs at every
// level are assigned to the rank owning the vertex they derive from (the
// MIS chain makes coarse vertices fine vertices, so ownership is
// inherited, exactly as in the paper's Prometheus); each level's operator
// is the Galerkin triple product R A R^T computed on row-distributed
// matrices (dla/dist_setup.h). Each level's smoother and the coarsest
// factorization come from the same setup as the serial hierarchy's
// (mg::level_smoother on the rank's local diagonal block — processor-
// block Jacobi by default — and mg::factor_coarsest on the gathered
// constant-size coarsest operator, solved redundantly on every rank, §5).
// Per-rank setup work scales with local rows: no rank constructs a
// global-size operator at any level but the coarsest.
//
// The cycles and PCG are the single backend-generic implementations
// (mg/cycle_any.h, la/krylov_any.h) instantiated with ParxBackend — this
// file adds only the CycleView adapter and the level data.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dla/dist_bsr.h"
#include "dla/dist_csr.h"
#include "dla/dist_krylov.h"
#include "dla/dist_mf.h"
#include "la/dense.h"
#include "la/smoothers.h"
#include "mg/hierarchy.h"
#include "mg/solver.h"

namespace prom::dla {

struct DistMgLevel {
  DistCsr a;   ///< level operator (square, row/col dist identical)
  DistCsr r;   ///< restriction from the finer level (empty on level 0)
  /// Node-block (BAIJ) view of `a`, built when the hierarchy is
  /// constructed with mg::MatrixFormat::kBsr3; the solve phase (SpMV
  /// inside smoothers, cycles, and PCG) then ships whole node blocks in
  /// the ghost exchange. Null in the scalar configuration. The matrix
  /// *setup* (Galerkin chain) stays CSR either way, so both formats see
  /// bit-identical operators.
  std::unique_ptr<DistBsr> a_bsr;
  /// Matrix-free element view of `a`, built when the hierarchy is
  /// constructed with mg::MatrixFormat::kMf and an MfProblem; level 0
  /// only (coarse levels have no elements). It borrows `a`'s layout and
  /// exchange plan, so the assembled fine matrix stays resident for the
  /// Galerkin products and the smoother diagonals.
  std::unique_ptr<DistMf> a_mf;

  /// The level smoother over the local rows (all but the coarsest level
  /// of a multi-level hierarchy), built from the local diagonal block.
  la::Smoother smoother;

  // Coarsest level: replicated dense factorization of the gathered
  // (constant-size) operator by mg::factor_coarsest; null on single-level
  // hierarchies. Exactly one of the two is set on the coarsest level.
  std::unique_ptr<la::DenseLdlt> direct;
  std::unique_ptr<la::DenseLu> direct_lu;

  /// Local smoothing (adaptive refinement levels, MgLevel::smooth_rows):
  /// when `smooth_masked` is set — identically on every rank of the
  /// level — a smoothing step updates only the local rows listed in
  /// `smooth_rows_local` (this rank's slice of the refined region) and
  /// leaves the rest of x untouched. The underlying sweep still runs
  /// collectively on all rows, so the exchange schedule is unchanged.
  bool smooth_masked = false;
  std::vector<idx> smooth_rows_local;

  idx local_n() const { return a.local_rows(); }

  /// One smoothing step of `smoother` on k columns (a single
  /// vector is the k=1 block): one exchange per operator application
  /// serves every column, and column j bitwise equals the k=1 step on
  /// that column. Collective.
  void smooth(parx::Comm& comm, la::BlockCRef b_local,
              la::BlockRef x_local) const;
};

class DistHierarchy {
 public:
  /// Builds the distributed hierarchy from `serial`'s grids and fine
  /// matrix. `serial` needs grids + restrictions + the level-0 operator
  /// only (mg::Hierarchy::build_grids suffices; a fully built hierarchy
  /// also works — its serial coarse operators are simply ignored).
  /// `fine_vertex_owner` maps each fine-mesh vertex to a rank; level-l dof
  /// ownership follows the MIS parent chain. Collective; deterministic and
  /// identical on all ranks. The permutations applied per level are
  /// retained so solutions can be mapped back to the serial ordering.
  /// `mf` supplies the fine-level element data when `format` is
  /// mg::MatrixFormat::kMf (required then, ignored otherwise).
  static DistHierarchy build(parx::Comm& comm, const mg::Hierarchy& serial,
                             std::span<const idx> fine_vertex_owner,
                             mg::MatrixFormat format = mg::MatrixFormat::kCsr,
                             const MfProblem* mf = nullptr);

  int num_levels() const { return static_cast<int>(levels_.size()); }
  const DistMgLevel& level(int l) const { return levels_[l]; }

  /// perm[l][new_index] = serial free-dof index at level l.
  const std::vector<idx>& permutation(int l) const { return perms_[l]; }

  /// Flops this rank spent in the distributed Galerkin triple products
  /// (the matrix-setup scaling quantity: shrinks as ranks grow).
  std::int64_t galerkin_flops() const { return galerkin_flops_; }

  int pre_smooth = 1;
  int post_smooth = 1;

 private:
  std::vector<DistMgLevel> levels_;
  std::vector<std::vector<idx>> perms_;
  std::int64_t galerkin_flops_ = 0;
};

/// One distributed V-cycle at `level` (collective).
void dist_vcycle(parx::Comm& comm, const DistHierarchy& h, int level,
                 std::span<const real> b_local, std::span<real> x_local);

/// One distributed full-multigrid cycle from zero (collective).
std::vector<real> dist_fmg_cycle(parx::Comm& comm, const DistHierarchy& h,
                                 std::span<const real> b_local);

/// The distributed FMG/V-cycle preconditioner: one cycle serves all k
/// columns of a block.
class DistMgPreconditioner final : public DistOperator {
 public:
  DistMgPreconditioner(const DistHierarchy& h, mg::CycleKind kind)
      : h_(&h), kind_(kind) {}
  idx local_n() const override { return h_->level(0).local_n(); }
  void apply(parx::Comm& comm, la::BlockCRef x_local,
             la::BlockRef y_local) const override;
  /// The k-column spelling of apply.
  void apply_mv(parx::Comm& comm, const la::MultiVec& x_local,
                la::MultiVec& y_local) const {
    apply(comm, x_local, y_local);
  }

 private:
  const DistHierarchy* h_;
  mg::CycleKind kind_;
};

/// Distributed MG-preconditioned CG for k right-hand sides (a single
/// vector is the k=1 block): every ghost exchange ships one message per
/// peer carrying all k columns, and column j of the result is bitwise
/// identical to the k=1 solve of that column (at any rank count and
/// kernel-thread count). `ws` (optional, per rank) reuses the PCG work
/// vectors across solves. Collective.
std::vector<la::KrylovResult> dist_mg_pcg_solve_mv(
    parx::Comm& comm, const DistHierarchy& h, la::BlockCRef b_local,
    la::BlockRef x_local, const mg::MgSolveOptions& opts = {},
    la::KrylovWorkspace* ws = nullptr);

/// Distributed MG-preconditioned CG on one right-hand side (collective).
la::KrylovResult dist_mg_pcg_solve(parx::Comm& comm, const DistHierarchy& h,
                                   std::span<const real> b_local,
                                   std::span<real> x_local,
                                   const mg::MgSolveOptions& opts = {});

/// Distributed MG-preconditioned solve with the Krylov driver selected by
/// `opts.krylov` (PCG, GMRES(m), or BiCGStab — the latter two for
/// non-symmetric operators, right-preconditioned with the same cycle).
/// Collective; every rank receives the same KrylovResult.
la::KrylovResult dist_mg_krylov_solve(parx::Comm& comm,
                                      const DistHierarchy& h,
                                      std::span<const real> b_local,
                                      std::span<real> x_local,
                                      const mg::MgSolveOptions& opts = {});

}  // namespace prom::dla
