// The parx execution backend for the single-source solver layer
// (la/backend.h): operators are DistOperator-shaped (local_n() +
// apply(comm, x, y)), vectors are the rank-local blocks of distributed
// vectors, and reductions allreduce over the virtual ranks. The binomial
// allreduce returns bit-identical doubles on every rank, so a solver
// instantiated with this backend makes identical control-flow decisions
// everywhere — no divergence-by-rounding across ranks.
#pragma once

#include <cmath>
#include <span>

#include "common/config.h"
#include "la/backend.h"
#include "la/vec.h"
#include "parx/runtime.h"

namespace prom::dla {

struct ParxBackend {
  parx::Comm* comm;

  /// Local storage of a distributed vector: this rank's owned block.
  using Vec = std::span<real>;

  template <class Op>
  idx local_n(const Op& op) const {
    return op.local_n();
  }

  template <class Op>
  void apply(const Op& op, std::span<const real> x,
             std::span<real> y) const {
    op.apply(*comm, x, y);
  }

  /// r = b - Op x on the local block; same bits as apply + waxpby (see
  /// la/backend.h), fused when the operator provides a residual kernel.
  template <class Op>
  void residual(const Op& op, std::span<const real> b,
                std::span<const real> x, std::span<real> r) const {
    if constexpr (requires { op.residual(*comm, b, x, r); }) {
      op.residual(*comm, b, x, r);
    } else {
      apply(op, x, r);
      la::waxpby(1, b, -1, r, r);
    }
  }

  /// Column-blocked apply: one exchange per peer carries all columns when
  /// the operator provides a blocked kernel; otherwise column by column.
  /// Either way column j matches `apply` on that column bitwise.
  template <class Op>
  void apply_mv(const Op& op, const la::MultiVec& x, la::MultiVec& y) const {
    if constexpr (requires { op.apply_mv(*comm, x, y); }) {
      op.apply_mv(*comm, x, y);
    } else {
      for (int j = 0; j < x.cols(); ++j) apply(op, x.col(j), y.col(j));
    }
  }

  template <class Op>
  void residual_mv(const Op& op, const la::MultiVec& b, const la::MultiVec& x,
                   la::MultiVec& r) const {
    if constexpr (requires { op.residual(*comm, b, x, r); }) {
      op.residual(*comm, b, x, r);
    } else {
      apply_mv(op, x, r);
      for (int j = 0; j < x.cols(); ++j) {
        la::waxpby(1, b.col(j), -1, r.col(j), r.col(j));
      }
    }
  }

  real reduce_sum(real local) const { return comm->allreduce_sum(local); }

  real dot(std::span<const real> x, std::span<const real> y) const {
    return reduce_sum(la::dot(x, y));
  }
  real norm2(std::span<const real> x) const { return std::sqrt(dot(x, x)); }
  void axpy(real a, std::span<const real> x, std::span<real> y) const {
    la::axpy(a, x, y);
  }
};

}  // namespace prom::dla
