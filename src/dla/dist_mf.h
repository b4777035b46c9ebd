// Distributed matrix-free fine-level operator: the dla counterpart of
// fem::MatrixFreeOperator. Each rank batches the elements relevant to its
// owned rows (every element with at least one owned free dof) and applies
// K_ff on the fly over the fine DistCsr's extended [owned | ghost] column
// space, reusing that matrix's HaloPlan — the assembled fine matrix still
// exists for the Galerkin coarse-level products and the smoothers (the
// hybrid scheme of arXiv:2203.12292), and its ghost columns are exactly
// the non-owned free dofs of the rank's relevant elements, so no second
// exchange plan is needed.
//
// Overlap schedule (dla/halo.h halo_apply): Pass A runs on the interior
// element batches (no ghost gather slots) while the halo is in flight,
// then on the boundary batches once it lands; Pass B accumulates each
// owned row's element contributions in ascending global element order.
// Per-element forces are pure per-lane functions and the accumulation
// order is a function of the mesh alone, so the distributed apply matches
// the serial matrix-free apply bitwise per owned row at any rank count,
// thread count, and message arrival order.
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "dla/dist_csr.h"
#include "fem/matrix_free.h"

namespace prom::dla {

/// The fine-level finite element problem the matrix-free operator is
/// built from (everything the assembled path already had in scope).
struct MfProblem {
  const mesh::Mesh* mesh = nullptr;
  const std::vector<fem::Material>* materials = nullptr;
  const fem::DofMap* dofmap = nullptr;
  bool bbar = true;
};

class DistMf {
 public:
  DistMf() = default;

  /// Builds this rank's batched element data against the fine-level
  /// distributed matrix `a` (whose row/column layout, ghost columns, and
  /// exchange plan are reused; `a` must outlive the DistMf). `perm` is
  /// the level's global permutation (perm[global] = serial free index).
  static DistMf build(parx::Comm& comm, const MfProblem& prob,
                      const DistCsr& a, std::span<const idx> perm);

  idx local_rows() const { return nlocal_; }
  const fem::MfCore& core() const { return core_; }

  /// y_local = K_ff x on the owned rows of k distributed vectors (a
  /// single vector is the k=1 block): one ghost exchange (one message per
  /// peer carrying every column) serves all columns; the element passes
  /// run column by column (one per-element force buffer), with column 0
  /// overlapped against the exchange. Column j bitwise equals the k=1
  /// apply of that column. Collective.
  void spmv(parx::Comm& comm, la::BlockCRef x_local,
            la::BlockRef y_local) const;

  /// r_local = b - K_ff x, fused. Collective.
  void residual(parx::Comm& comm, la::BlockCRef b_local,
                la::BlockCRef x_local, la::BlockRef r_local) const;

 private:
  /// The ghost exchange (overlapped with column 0's interior Pass A), then
  /// per column j: Pass A, then pass_b(j).
  template <class PassB>
  void run(parx::Comm& comm, la::BlockCRef x_local, const PassB& pass_b) const;

  idx nlocal_ = 0;
  const DistCsr* a_ = nullptr;  // layout + halo plan donor
  fem::MfCore core_;
  // [owned | ghost] gather space, grown to the widest k seen.
  mutable std::vector<real> x_ext_;
};

}  // namespace prom::dla
