// Block-sparse-row matrices with dense BS x BS blocks — the PETSc BAIJ
// substitute. 3D elasticity carries 3 dofs per mesh node, so stiffness
// matrices are naturally sparse matrices of dense 3x3 node blocks; storing
// them blocked cuts the column-index traffic of memory-bound kernels by
// BS^2 and is what made the paper's per-node Mflop/s rates attainable
// (Adams & Demmel ran Prometheus on PETSc block matrices throughout).
//
// Every kernel follows the intra-rank determinism contract of
// common/parallel.h: fixed grains, per-chunk private accumulators, merges
// in chunk order. SpMV additionally preserves the scalar accumulation
// order of la::Csr — within each scalar row, terms are added in ascending
// scalar-column order (blocks are sorted by block column; the BS lanes of
// a block are visited in order) — so a Bsr built from a Csr produces
// bit-identical products, and the CSR and BSR solve paths yield the same
// residual histories.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "common/config.h"
#include "la/csr.h"
#include "la/operator.h"

namespace prom::la {

/// One (block row, block col, dense block) assembly contribution. The
/// block is row-major: v[r * BS + c] is the (r, c) entry.
template <int BS>
struct BlockTriplet {
  idx brow;
  idx bcol;
  std::array<real, BS * BS> v;
};

/// BSR sparse matrix of dense BS x BS blocks. Block-column indices are
/// sorted and unique within each block row; `vals` stores each block
/// row-major, BS*BS reals per block.
template <int BS>
struct Bsr {
  static_assert(BS >= 1);
  static constexpr int kBlock = BS;
  static constexpr int kBlockSize = BS * BS;

  idx nbrows = 0;  // block rows
  idx nbcols = 0;  // block cols
  std::vector<nnz_t> browptr;  // size nbrows + 1
  std::vector<idx> bcolidx;    // size nblocks
  std::vector<real> vals;      // size nblocks * BS * BS

  nnz_t nblocks() const { return browptr.empty() ? 0 : browptr.back(); }
  idx rows() const { return BS * nbrows; }
  idx cols() const { return BS * nbcols; }

  /// Y = A X over k columns of scalar vectors of length cols() / rows()
  /// (a single vector is the k=1 block): one pass over the block
  /// structure feeds one accumulator per column, each in the scalar CSR
  /// order, so column j is bitwise identical to the k=1 product.
  void spmv(BlockCRef x, BlockRef y) const;

  /// R = B - A X, fused (same bits as spmv followed by r = b - y).
  void residual(BlockCRef b, BlockCRef x, BlockRef r) const;

  /// Y = A X restricted to the listed block rows; other entries of Y are
  /// not touched. Each block row accumulates exactly as in spmv, so
  /// splitting the block-row space across calls reproduces spmv's bits.
  void spmv_brows(BlockCRef x, BlockRef y, std::span<const idx> brows) const;

  /// R = B - A X restricted to the listed block rows.
  void residual_brows(BlockCRef b, BlockCRef x, BlockRef r,
                      std::span<const idx> brows) const;

  /// Convenience: returns A x as a new vector.
  std::vector<real> apply(std::span<const real> x) const;

  /// Scalar value at (i, j); 0 if no covering block is stored.
  real at(idx i, idx j) const;

  /// Explicit transpose (blocks transposed too).
  Bsr transposed() const;

  /// Scalar main diagonal (missing entries give 0).
  std::vector<real> diagonal() const;

  /// Dense diagonal blocks, BS*BS reals per block row (row-major); block
  /// rows with no stored diagonal block give zeros.
  std::vector<real> block_diagonal() const;

  /// Inverse of each diagonal block, BS*BS reals per block row. Missing
  /// diagonal blocks yield the identity. Fails on singular blocks.
  std::vector<real> inverted_block_diagonal() const;

  /// Lossless scalar view: every stored block expands to BS*BS CSR
  /// entries (explicit zeros included), columns sorted.
  Csr to_csr() const;

  /// Blocks a CSR matrix whose dimensions are divisible by BS. Lossless:
  /// unstored scalar entries become explicit zeros inside their block.
  static Bsr from_csr(const Csr& a);

  /// Builds from block triplets; duplicate (brow, bcol) blocks are summed
  /// entrywise (the finite element assembly convention).
  static Bsr from_block_triplets(idx nbrows, idx nbcols,
                                 std::span<const BlockTriplet<BS>> triplets);
};

/// C = A * B with block-level Gustavson (dense BS x BS block products).
template <int BS>
Bsr<BS> spgemm(const Bsr<BS>& a, const Bsr<BS>& b);

/// The blocked Galerkin triple product R A R^T. R is (coarse block rows) x
/// (fine block cols), A is square on the fine block space.
template <int BS>
Bsr<BS> galerkin_product(const Bsr<BS>& r, const Bsr<BS>& a);

using Bsr3 = Bsr<3>;
using BlockTriplet3 = BlockTriplet<3>;

extern template struct Bsr<3>;

/// Maps a free-dof vector (the solver's numbering, one entry per
/// unconstrained dof) onto a padded node-block space: every mesh node with
/// at least one free dof becomes one block of kDofPerVertex slots, and a
/// node's constrained components become padding slots that hold zeros.
/// Built from the level's `free_dofs` list (entries are
/// kDofPerVertex * vertex + component, ascending).
struct NodeBlockMap {
  idx nfree = 0;   // free dofs (scalar solver vectors)
  idx nnodes = 0;  // node blocks (>= 1 free dof each)
  std::vector<idx> slot_of_free;   // free dof -> kDofPerVertex*node + comp
  std::vector<idx> free_of_slot;   // slot -> free dof, kInvalidIdx = padding
  std::vector<idx> vertex_of_node; // node -> mesh vertex (ascending)

  idx nslots() const { return kDofPerVertex * nnodes; }

  /// Scatters a free vector into the padded block space (padding = 0).
  void gather(std::span<const real> free_vec, std::span<real> slots) const;
  /// Extracts the free entries of a padded block vector.
  void scatter(std::span<const real> slots, std::span<real> free_vec) const;
};

/// Builds the map from a level's free-dof list (3*v + c, ascending).
NodeBlockMap node_block_map(std::span<const idx> free_dofs);

/// Re-blocks a free-dof CSR operator (the assembled stiffness with
/// constrained dofs removed) into the padded node-block space of `map`.
/// Padding rows/cols are zero except for 1s on the padded diagonal slots,
/// which keep every diagonal block invertible for the point-block
/// smoothers without perturbing the free sub-operator.
Bsr3 bsr_from_free_csr(const Csr& a, const NodeBlockMap& map);

/// LinearOperator adapter: applies a padded node-block Bsr3 to free-dof
/// vectors by gathering through a NodeBlockMap, running the blocked SpMV,
/// and scattering the free rows back. Because padding contributes exact
/// zeros and block columns are sorted, the result is bit-identical to the
/// scalar CSR operator it was built from (modulo signed zeros).
class BsrOperator final : public LinearOperator {
 public:
  BsrOperator(Bsr3 a, NodeBlockMap map);

  idx rows() const override { return map_.nfree; }
  idx cols() const override { return map_.nfree; }
  void apply(BlockCRef x, BlockRef y) const override;

  /// R = B - A X on free vectors (fused kernel, same bits as apply + sub).
  void residual(BlockCRef b, BlockCRef x, BlockRef r) const;

  const Bsr3& matrix() const { return a_; }
  const NodeBlockMap& map() const { return map_; }

 private:
  Bsr3 a_;
  NodeBlockMap map_;
};

}  // namespace prom::la
