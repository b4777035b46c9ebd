// Abstract linear operator. Krylov methods see the system matrix and the
// preconditioner only through this interface, which lets the same CG code
// run on a serial CSR matrix, the full-multigrid preconditioner, or a
// distributed operator.
#pragma once

#include <algorithm>

#include "common/config.h"
#include "la/csr.h"

namespace prom::la {

class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  virtual idx rows() const = 0;
  virtual idx cols() const = 0;

  /// Y = Op(X) over k columns (a single vector is the k=1 block); column
  /// j of the result must be bitwise identical to applying the operator
  /// to that column alone. `x` and `y` never alias.
  virtual void apply(BlockCRef x, BlockRef y) const = 0;
};

/// Adapts a CSR matrix (not owned) to the LinearOperator interface.
class CsrOperator final : public LinearOperator {
 public:
  explicit CsrOperator(const Csr& a) : a_(&a) {}

  idx rows() const override { return a_->nrows; }
  idx cols() const override { return a_->ncols; }
  void apply(BlockCRef x, BlockRef y) const override { a_->spmv(x, y); }

  /// Fused residual (picked up by SerialBackend's requires-hook when
  /// called with the concrete adapter type).
  void residual(BlockCRef b, BlockCRef x, BlockRef r) const {
    a_->residual(b, x, r);
  }

 private:
  const Csr* a_;
};

/// The identity, usable as a "no preconditioner" placeholder.
class IdentityOperator final : public LinearOperator {
 public:
  explicit IdentityOperator(idx n) : n_(n) {}
  idx rows() const override { return n_; }
  idx cols() const override { return n_; }
  void apply(BlockCRef x, BlockRef y) const override {
    for (int j = 0; j < x.cols(); ++j) {
      std::copy(x.col(j).begin(), x.col(j).end(), y.col_data(j));
    }
  }

 private:
  idx n_;
};

}  // namespace prom::la
