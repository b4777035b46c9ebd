// Small dense matrices and an LDL^T factorization. Used for: the redundant
// direct solve on the coarsest multigrid level, the diagonal blocks of the
// block-Jacobi smoother, and element-level computations in `fem`.
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "common/error.h"

namespace prom::la {

/// Column-major dense matrix.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(idx rows, idx cols)
      : rows_(rows), cols_(cols),
        a_(static_cast<std::size_t>(rows) * cols, real{0}) {}

  idx rows() const { return rows_; }
  idx cols() const { return cols_; }

  real& operator()(idx i, idx j) {
    return a_[static_cast<std::size_t>(j) * rows_ + i];
  }
  real operator()(idx i, idx j) const {
    return a_[static_cast<std::size_t>(j) * rows_ + i];
  }

  std::span<const real> data() const { return a_; }
  std::span<real> data() { return a_; }

  /// y = A x
  void matvec(std::span<const real> x, std::span<real> y) const;

  /// Identity matrix of order n.
  static DenseMatrix identity(idx n);

 private:
  idx rows_ = 0, cols_ = 0;
  std::vector<real> a_;
};

/// LDL^T factorization (no pivoting) of a symmetric matrix; intended for
/// the symmetric positive definite systems this project produces. A
/// non-positive or vanishing pivot marks the factorization as failed
/// rather than producing NaNs.
class DenseLdlt {
 public:
  /// Factors A (reads the lower triangle). O(n^3/3).
  explicit DenseLdlt(const DenseMatrix& a);

  bool ok() const { return ok_; }
  idx n() const { return n_; }

  /// Solves A x = b. Requires ok(). The k = 1 case of solve_mv.
  void solve(std::span<const real> b, std::span<real> x) const;

  /// Solves A X = B for k columns stored at stride `ld` >= n(): column j
  /// of B is b[j*ld, j*ld + n), likewise for X. Column j's bits equal
  /// solve() on that column alone. b and x may be the same storage.
  void solve_mv(std::span<const real> b, std::span<real> x, int k,
                idx ld) const;

 private:
  idx n_ = 0;
  bool ok_ = false;
  DenseMatrix l_;            // unit lower triangular (diagonal implied 1)
  std::vector<real> d_;      // diagonal of D
};

/// LU factorization with partial pivoting — the general-matrix counterpart
/// of DenseLdlt, used for the redundant coarsest-level solve of
/// non-symmetric operators (advection–diffusion Galerkin chains). A
/// vanishing pivot (singular to working precision) marks the
/// factorization as failed rather than producing NaNs.
class DenseLu {
 public:
  DenseLu() = default;
  /// Factors P A = L U. O(2n^3/3).
  explicit DenseLu(const DenseMatrix& a);

  bool ok() const { return ok_; }
  idx n() const { return n_; }

  /// Solves A x = b. Requires ok(). The k = 1 case of solve_mv.
  void solve(std::span<const real> b, std::span<real> x) const;

  /// Solves A X = B for k columns at stride `ld` >= n(), with DenseLdlt's
  /// layout and bitwise per-column guarantee.
  void solve_mv(std::span<const real> b, std::span<real> x, int k,
                idx ld) const;

 private:
  idx n_ = 0;
  bool ok_ = false;
  DenseMatrix lu_;          // packed L (unit diagonal implied) and U
  DenseMatrix ut_;          // U transposed: column i is row i of U
  std::vector<idx> piv_;    // row of the k-th pivot
};

}  // namespace prom::la
