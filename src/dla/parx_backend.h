// The parx execution backend for the single-source solver layer
// (la/backend.h): operators are DistOperator-shaped (local_n() +
// apply(comm, x, y)), vectors are the rank-local column blocks of
// distributed vectors, and reductions allreduce over the virtual ranks.
// The binomial allreduce returns bit-identical doubles on every rank, so
// a solver instantiated with this backend makes identical control-flow
// decisions everywhere — no divergence-by-rounding across ranks.
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

  template <class Op>
  idx local_n(const Op& op) const {
    return op.local_n();
  }

  template <class Op>
  void apply(const Op& op, la::BlockCRef x, la::BlockRef y) const {
    op.apply(*comm, x, y);
  }

  /// R = B - Op X on the local blocks; same bits as apply + waxpby (see
  /// la/backend.h), fused when the operator provides a residual kernel.
  /// One exchange per peer carries every column either way.
  template <class Op>
  void residual(const Op& op, la::BlockCRef b, la::BlockCRef x,
                la::BlockRef r) const {
    if constexpr (requires { op.residual(*comm, b, x, r); }) {
      op.residual(*comm, b, x, r);
    } else {
      apply(op, x, r);
      la::subtract_from(b, r);
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
