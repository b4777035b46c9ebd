// The multigrid hierarchy (Prometheus + Epimetheus of Figure 8): applies
// coarsen::coarsen_level recursively to build grids and restriction
// operators, forms the Galerkin coarse operators A_{l+1} = R A_l R^T (§3),
// and equips each level with a smoother and the coarsest with a redundant
// dense factorization. The level setup (level_smoother, factor_coarsest,
// solve_coarsest) is written once here and serves the distributed
// hierarchy (dla::DistHierarchy) too.
#pragma once

#include <memory>
#include <vector>

#include "coarsen/coarsen.h"
#include "common/config.h"
#include "fem/assembly.h"
#include "fem/matrix_free.h"
#include "fem/scalar.h"
#include "la/bsr.h"
#include "la/csr.h"
#include "la/dense.h"
#include "la/smoothers.h"
#include "mesh/mesh.h"
#include "mesh/refine.h"

namespace prom::mg {

using SmootherKind = la::SmootherKind;

/// Storage format the solve phase applies operators in. kCsr is the
/// scalar baseline (PETSc AIJ); kBsr3 re-blocks every level into dense
/// 3x3 node blocks (PETSc BAIJ, what the paper ran on); kMf applies the
/// finest level matrix-free from batched element data (fem/matrix_free.h)
/// while every coarse level stays assembled Galerkin. All three produce
/// the same residual history to rounding: the blocked SpMV preserves the
/// scalar accumulation order exactly (la/bsr.h), the element apply to
/// reassociation rounding (~1e-12).
enum class MatrixFormat : std::uint8_t { kCsr, kBsr3, kMf };

/// Reads the PROM_MATRIX environment switch ("csr" | "bsr3" | "mf"; unset
/// or empty means kCsr). Fails fast on an unknown value.
MatrixFormat matrix_format_from_env();

/// kDense factors symmetric operators (LDL^T); kDenseLu is the
/// general-matrix option required by the non-symmetric scalar classes
/// (SUPG advection–diffusion), where the Galerkin coarse operators are
/// non-symmetric too.
enum class CoarseSolverKind : std::uint8_t { kDense, kDenseLu };

struct MgOptions {
  int max_levels = 12;
  /// Stop coarsening when a level has at most this many free dofs (it is
  /// then solved directly; its size "remains constant as the problem size
  /// increases and is thus not a hindrance to scalability", §5).
  idx coarsest_max_dofs = 700;
  /// Abort coarsening if the MIS keeps more than this fraction of vertices.
  real min_coarsen_ratio = 0.75;

  coarsen::CoarsenOptions coarsen;

  SmootherKind smoother = SmootherKind::kBlockJacobi;
  real omega = 0.6;               ///< damping for Jacobi/block Jacobi
  idx bj_blocks_per_1000 = 6;     ///< the paper's block density (§7.2)
  int cheby_degree = 3;           ///< polynomial degree for kChebyshev
  int pre_smooth = 1;             ///< paper: one pre-smoothing step
  int post_smooth = 1;            ///< paper: one post-smoothing step

  /// Coarsest-level factorization (factor_coarsest).
  CoarseSolverKind coarse_solver = CoarseSolverKind::kDense;
};

struct MgLevel {
  la::Csr a;  ///< operator on this level's free dofs
  /// Restriction from the next-finer level's free dofs to this level's
  /// (empty on level 0). Prolongation is r^T.
  la::Csr r;
  /// Node-block (BAIJ) view of `a`, built by Hierarchy::enable_bsr();
  /// null in the default scalar configuration.
  std::unique_ptr<la::BsrOperator> a_bsr;
  /// Matrix-free element view of `a`, built by Hierarchy::enable_mf();
  /// level 0 only (coarse levels have no elements to integrate over).
  std::unique_ptr<fem::MatrixFreeOperator> a_mf;
  la::Smoother smoother;                   // all but coarsest
  std::unique_ptr<la::DenseLdlt> direct;   // coarsest (kDense)
  std::unique_ptr<la::DenseLu> direct_lu;  // coarsest (kDenseLu)

  // Grid diagnostics (Figure 7 / DESIGN.md hierarchy stats).
  idx num_vertices = 0;
  std::vector<idx> free_dofs;       ///< vertex-local dof ids (3*v+c), free
  std::vector<idx> selected_from_fine;  ///< fine-level vertex of each vertex
  idx lost_vertices = 0;
  nnz_t graph_edges_removed = 0;

  /// Local smoothing (adaptive refinement levels only): when non-empty,
  /// smoothing on this level updates only these free-dof rows — the dofs
  /// of the region the next refinement round subdivided — leaving the
  /// rest of the level to the coarser grids (arXiv:1904.03317). Empty
  /// means smooth everywhere (every non-refinement level).
  std::vector<idx> smooth_rows;
};

/// The block-Jacobi blocks of a level when opts.smoother is kBlockJacobi
/// (else none): a partition of the adjacency graph of `diag` (a square
/// local diagonal block) at opts.bj_blocks_per_1000 (§7.2).
std::vector<std::vector<idx>> smoother_blocks(const la::Csr& diag,
                                              const MgOptions& opts);

/// A level's smoother as `opts` selects it — the one level-smoother setup
/// of the serial and the distributed hierarchy. `diag` is the level
/// operator's local diagonal block, read only here (la::Smoother::build).
template <class B, class Op>
la::Smoother level_smoother(const B& be, const Op& a, const la::Csr& diag,
                            const MgOptions& opts, idx row_offset) {
  return la::Smoother::build(be, a, diag, opts.smoother, opts.omega,
                             opts.cheby_degree, smoother_blocks(diag, opts),
                             row_offset);
}

/// The coarsest level's redundant dense factorization of `a` (§5: the
/// coarsest problem has constant size): partial-pivoting LU for kDenseLu,
/// else LDL^T with diagonal-shift escalation should `a` be indefinite.
/// Sets exactly one of `direct` / `direct_lu` and resets the other.
void factor_coarsest(const la::Csr& a, CoarseSolverKind kind,
                     std::unique_ptr<la::DenseLdlt>& direct,
                     std::unique_ptr<la::DenseLu>& direct_lu);

/// X = A^{-1} B on k columns through whichever coarsest factor is set,
/// column j bitwise equal to the k=1 solve; b and x may be the same block.
void solve_coarsest(const la::DenseLdlt* direct, const la::DenseLu* direct_lu,
                    la::BlockCRef b, la::BlockRef x);

class Hierarchy {
 public:
  /// Builds grids + operators from the fine mesh, its constraints, and the
  /// assembled fine matrix on the free dofs.
  static Hierarchy build(const mesh::Mesh& mesh, const fem::DofMap& dofmap,
                         la::Csr a_fine, const MgOptions& opts = {});

  /// Grids-only build (the "mesh setup" phase alone): coarse grids and
  /// restriction operators, but no Galerkin coarse operators, smoothers,
  /// or coarse factorization — those are the *matrix setup* phase, which
  /// the distributed path (dla::DistHierarchy) performs row-distributed.
  /// The fine matrix is kept (it seeds the distributed chain).
  static Hierarchy build_grids(const mesh::Mesh& mesh,
                               const fem::DofMap& dofmap, la::Csr a_fine,
                               const MgOptions& opts = {});

  /// Scalar (block-size-1) counterpart of build: same MIS coarsening on
  /// the vertex graph, same Galerkin chain, but one dof per vertex —
  /// restriction rows are the bare vertex weights (no Kronecker I_3).
  static Hierarchy build_scalar(const mesh::Mesh& mesh,
                                const fem::ScalarDofMap& dofmap,
                                la::Csr a_fine, const MgOptions& opts = {});

  /// Grids-only scalar build (see build_grids).
  static Hierarchy build_grids_scalar(const mesh::Mesh& mesh,
                                      const fem::ScalarDofMap& dofmap,
                                      la::Csr a_fine,
                                      const MgOptions& opts = {});

  /// Grids for an adaptively refined mesh family (mesh::refine_local):
  /// `meshes[0]` is the unrefined tet mesh, `meshes.back()` the finest;
  /// `rounds[r]` records the bisections taking meshes[r] to meshes[r+1];
  /// `dofmaps[r]` holds meshes[r]'s constraints (finalized). The levels
  /// are the refinement meshes finest-first — prolongation interpolates
  /// midpoints from their bisected-edge endpoints, smoothing on each
  /// refinement level is restricted to the region that round subdivided
  /// (MgLevel::smooth_rows) — followed by the usual MIS/Delaunay chain
  /// below meshes[0]. `a_fine` is the assembled operator on the finest
  /// mesh's free dofs.
  static Hierarchy build_grids_refined(
      const std::vector<const mesh::Mesh*>& meshes,
      const std::vector<const fem::DofMap*>& dofmaps,
      const std::vector<mesh::RefineResult>& rounds, la::Csr a_fine,
      const MgOptions& opts = {});

  /// Scalar (block-size-1) counterpart of build_grids_refined.
  static Hierarchy build_grids_refined_scalar(
      const std::vector<const mesh::Mesh*>& meshes,
      const std::vector<const fem::ScalarDofMap*>& dofmaps,
      const std::vector<mesh::RefineResult>& rounds, la::Csr a_fine,
      const MgOptions& opts = {});

  /// build_grids_refined + Galerkin operators/smoothers (serial solves).
  static Hierarchy build_refined(
      const std::vector<const mesh::Mesh*>& meshes,
      const std::vector<const fem::DofMap*>& dofmaps,
      const std::vector<mesh::RefineResult>& rounds, la::Csr a_fine,
      const MgOptions& opts = {});

  /// build_grids_refined_scalar + operators (serial scalar solves).
  static Hierarchy build_refined_scalar(
      const std::vector<const mesh::Mesh*>& meshes,
      const std::vector<const fem::ScalarDofMap*>& dofmaps,
      const std::vector<mesh::RefineResult>& rounds, la::Csr a_fine,
      const MgOptions& opts = {});

  /// Builds a hierarchy from an explicit operator/restriction chain
  /// (restrictions[l] maps level l free dofs -> level l+1); used by the
  /// algebraic (smoothed aggregation) coarsening, which produces its own
  /// restriction operators.
  static Hierarchy from_operator_chain(la::Csr a_fine,
                                       std::vector<la::Csr> restrictions,
                                       const MgOptions& opts);

  /// Replaces the fine operator (new Newton tangent) and recomputes the
  /// Galerkin chain, smoothers and coarse factorization on the *same*
  /// grids — the paper's "matrix setup" phase, paid once per Newton step.
  void update_fine_matrix(la::Csr a_fine);

  /// Replaces the fine operator only, leaving serial matrix setup to the
  /// distributed path (Newton with dist_ranks > 0 rebuilds the Galerkin
  /// chain row-distributed from this matrix each iteration).
  void set_fine_matrix(la::Csr a_fine);

  /// Re-blocks every level's operator into the padded node-block space
  /// (MgLevel::a_bsr) so the solve phase can run in MatrixFormat::kBsr3.
  /// Call after operators exist (build / update_fine_matrix); idempotent.
  void enable_bsr();

  /// Builds the fine level's matrix-free element view (MgLevel::a_mf) so
  /// the solve phase can run in MatrixFormat::kMf. Valid only for the
  /// unloaded-state tangent (what assemble_linear_system produced — see
  /// fem/matrix_free.h); the mesh/materials/dofmap must be the ones the
  /// fine matrix was assembled from. Idempotent (rebuilds the view).
  void enable_mf(const mesh::Mesh& mesh,
                 std::span<const fem::Material> materials,
                 const fem::DofMap& dofmap, bool bbar = true);

  int num_levels() const { return static_cast<int>(levels_.size()); }
  const MgLevel& level(int l) const { return levels_[l]; }
  const MgOptions& options() const { return opts_; }

  /// Dofs per vertex of the operators in this hierarchy: 3 for the
  /// elasticity stack, 1 for the scalar equation classes. The distributed
  /// build (dla::DistHierarchy) derives vertex ownership from free dofs
  /// through this.
  int block_size() const { return block_size_; }

  /// One-line-per-level summary (vertices, dofs, nnz) for logs/benches.
  std::string describe() const;

 private:
  static Hierarchy build_grids_any(const mesh::Mesh& mesh, int ncomp,
                                   std::vector<char> dof_free,
                                   std::vector<idx> fine_free, la::Csr a_fine,
                                   const MgOptions& opts);
  static Hierarchy build_grids_refined_any(
      const std::vector<const mesh::Mesh*>& meshes,
      const std::vector<mesh::RefineResult>& rounds,
      std::vector<std::vector<idx>> level_free, int ncomp, la::Csr a_fine,
      const MgOptions& opts);
  void build_operators();

  MgOptions opts_;
  std::vector<MgLevel> levels_;
  int block_size_ = 3;
};

}  // namespace prom::mg
