// Compressed sparse row matrices — the PETSc-substitute storage used for
// stiffness matrices, restriction operators, and Galerkin coarse grid
// operators (A_coarse = R A R^T, §3 of the paper).
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "la/multivec.h"

namespace prom::la {

/// One (row, col, value) entry used during assembly.
struct Triplet {
  idx row;
  idx col;
  real value;
};

/// CSR sparse matrix. Column indices are sorted and unique within each row.
struct Csr {
  idx nrows = 0;
  idx ncols = 0;
  std::vector<nnz_t> rowptr;  // size nrows + 1
  std::vector<idx> colidx;    // size nnz
  std::vector<real> vals;     // size nnz

  nnz_t nnz() const { return rowptr.empty() ? 0 : rowptr.back(); }

  /// Y = A X over k columns (a single vector is the k=1 block). One pass
  /// over the matrix serves every column; each column accumulates its
  /// row's terms in sorted-column order, so column j is bitwise identical
  /// to the k=1 product of that column.
  void spmv(BlockCRef x, BlockRef y) const;

  /// Y = A^T X (no explicit transpose formed), column by column in one
  /// call with one scratch buffer.
  void spmv_transpose(BlockCRef x, BlockRef y) const;

  /// R = B - A X, fused. Exactly the bits of spmv followed by
  /// r[i] = b[i] - y[i] (see la/backend.h on why the fusion is lossless).
  void residual(BlockCRef b, BlockCRef x, BlockRef r) const;

  /// Y[i] = (A X)[i] for the listed rows only; other entries of Y are not
  /// touched. Each row accumulates exactly as in spmv, so splitting the
  /// row space across calls reproduces spmv's bits.
  void spmv_rows(BlockCRef x, BlockRef y, std::span<const idx> rows) const;

  /// R[i] = B[i] - (A X)[i] for the listed rows only.
  void residual_rows(BlockCRef b, BlockCRef x, BlockRef r,
                     std::span<const idx> rows) const;

  /// Convenience: returns A x as a new vector.
  std::vector<real> apply(std::span<const real> x) const;

  /// Value at (i, j); 0 if the entry is not stored. O(log row length).
  real at(idx i, idx j) const;

  /// Explicit transpose.
  Csr transposed() const;

  /// Main diagonal (missing entries give 0).
  std::vector<real> diagonal() const;

  /// max_ij |A_ij - A_ji| — symmetry check for tests and assertions.
  real symmetry_error() const;

  /// Builds from triplets; duplicate (i, j) entries are summed (the finite
  /// element assembly convention).
  static Csr from_triplets(idx nrows, idx ncols,
                           std::span<const Triplet> triplets);

  static Csr identity(idx n);

  /// Dense conversion for tests and the coarsest-level direct solver.
  std::vector<real> to_dense_rowmajor() const;
};

/// C = A * B (Gustavson's algorithm).
Csr spgemm(const Csr& a, const Csr& b);

/// The Galerkin triple product R A R^T (the paper's coarse grid operator,
/// §3). R is n_coarse x n_fine, A is n_fine x n_fine.
Csr galerkin_product(const Csr& r, const Csr& a);

/// Drops stored entries with |value| <= tol (tidies coarse operators).
Csr drop_small(const Csr& a, real tol);

}  // namespace prom::la
