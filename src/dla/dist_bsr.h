// Distributed node-block (BAIJ-style) matrices for the solve phase: the
// blocked counterpart of DistCsr. Each rank re-blocks its owned rows of a
// square row-distributed operator into dense 3x3 node blocks (la/bsr.h)
// and the ghost exchange ships whole node blocks — one node index plus
// kDofPerVertex values per ghost node instead of one index per scalar —
// cutting both the plan metadata and the per-SpMV index traffic by 3x.
//
// Node identity comes from the level's vertex ids: the distributed dof
// permutation stable-sorts free dofs by owning rank, so a node's free
// dofs stay contiguous (and on one rank) in the permuted global
// numbering. Block columns are ordered by global position, so the local
// blocked SpMV accumulates each scalar row in DistCsr's storage order and
// the two formats produce the same residual histories to rounding.
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "dla/dist_csr.h"
#include "dla/halo.h"
#include "la/bsr.h"
#include "parx/runtime.h"

namespace prom::dla {

class DistBsr {
 public:
  DistBsr() = default;

  /// Re-blocks the square row-distributed operator `a` (row and column
  /// distributions aligned) into node blocks. `perm` is the level's
  /// global permutation (perm[global] = serial free-dof index, identical
  /// on all ranks) and `free_dofs` the level's serial free-dof list
  /// (kDofPerVertex * vertex + component) — together they recover the
  /// (node, component) of every owned and ghost column. Collective
  /// (builds the node-granularity exchange plan).
  static DistBsr build(parx::Comm& comm, const DistCsr& a,
                       std::span<const idx> perm,
                       std::span<const idx> free_dofs);

  idx local_rows() const { return nlocal_; }

  /// The owned node-block rows over [owned | ghost] node columns.
  const la::Bsr3& local_matrix() const { return local_; }

  /// Block rows referencing only owned node columns — computable before
  /// the ghost exchange completes; boundary_brows() is the complement.
  const std::vector<idx>& interior_brows() const { return interior_brows_; }
  const std::vector<idx>& boundary_brows() const { return boundary_brows_; }

  /// The exchange plan (persistent staging; see dla/halo.h).
  const HaloPlan& halo_plan() const { return plan_; }

  /// y_local = A x on the free-dof local blocks of k distributed vectors
  /// (a single vector is the k=1 block); one exchange ships whole node
  /// blocks of every column, and column j bitwise equals the k=1 product
  /// of that column. Collective.
  void spmv(parx::Comm& comm, la::BlockCRef x_local,
            la::BlockRef y_local) const;

  /// r_local = b - A x, fused (same bits as spmv + subtraction).
  /// Collective.
  void residual(parx::Comm& comm, la::BlockCRef b_local,
                la::BlockCRef x_local, la::BlockRef r_local) const;

 private:
  int rank_ = 0;
  idx nlocal_ = 0;  // owned scalar rows (free dofs)
  la::Bsr3 local_;  // owned node rows x [owned | ghost] node cols
  std::vector<idx> row_slot_of_free_;   // local row -> BS*brow + comp
  std::vector<idx> slot_of_owned_col_;  // local owned col -> x_ext slot
  /// Per owned-node slot, the local dof holding its value (kInvalidIdx for
  /// constrained/padding components, which always carry 0).
  std::vector<idx> own_node_dof_;
  // Scalar-slot exchange plan over whole node blocks: the gather list is
  // own_node_dof_ per requested node (kInvalidIdx ships the padding zero)
  // and the recv slots are each ghost node's x_ext slots. Ghost padding
  // slots are rewritten with zeros every exchange; owned padding slots are
  // zeroed once at build and never touched again.
  HaloPlan plan_;
  std::vector<idx> interior_brows_;  // block rows with owned columns only
  std::vector<idx> boundary_brows_;  // the rest
  // Persistent padded work blocks, grown to the widest k seen (see
  // grow_block, and build() for the zero invariants).
  mutable std::vector<real> x_ext_;
  mutable std::vector<real> b_pad_;
  mutable std::vector<real> out_pad_;  // y or r, before extraction
};

}  // namespace prom::dla
