// Execution backends for the single-source solver layer. Every solve-phase
// algorithm (PCG, the smoother drivers, the multigrid cycles) is written
// exactly once as a template over a Backend: a small value type that knows
// how to (a) size and apply an operator on the locally-stored part of a
// vector and (b) combine locally-computed reductions across the machine.
//
// The serial backend's reduction hook is the identity (the local part IS
// the whole vector); the parx backend (dla/parx_backend.h) reduces with an
// allreduce over the virtual ranks. Everything else — axpy-style vector
// updates, dot, norm — is expressed in terms of those two hooks, so the
// serial and distributed solvers cannot drift apart.
#pragma once

#include <cmath>
#include <concepts>
#include <span>

#include "common/config.h"
#include "la/multivec.h"
#include "la/vec.h"

namespace prom::la {

/// What the generic solver templates require of a backend B driving an
/// operator type Op. `local_n` is the length of the locally-stored block of
/// a distributed vector (the whole vector for the serial backend); `apply`
/// computes Y = Op X on local column blocks (a single vector is one
/// column), communicating internally if needed; `reduce_sum` combines a
/// locally-computed partial reduction into the global value on every
/// caller.
template <class B, class Op>
concept BackendFor =
    requires(const B& be, const Op& op, BlockCRef cx, BlockRef mx,
             std::span<const real> cs, std::span<real> ms, real v) {
      { be.local_n(op) } -> std::convertible_to<idx>;
      be.apply(op, cx, mx);
      be.residual(op, cx, cx, mx);
      { be.reduce_sum(v) } -> std::convertible_to<real>;
      { be.dot(cs, cs) } -> std::convertible_to<real>;
      { be.norm2(cs) } -> std::convertible_to<real>;
      be.axpy(v, cs, ms);
    };

/// R = B - R column by column, in place — the unfused half of a residual
/// (one subtraction per entry, so it rounds exactly like a fused kernel).
inline void subtract_from(BlockCRef b, BlockRef r) {
  for (int j = 0; j < r.cols(); ++j) {
    waxpby(1, b.col(j), -1, r.col(j), r.col(j));
  }
}

/// Single-address-space backend: operators are la::LinearOperator (or any
/// type with rows()/apply()), vectors are plain column blocks, reductions
/// are already global.
struct SerialBackend {
  template <class Op>
  idx local_n(const Op& op) const {
    return op.rows();
  }

  template <class Op>
  void apply(const Op& op, BlockCRef x, BlockRef y) const {
    op.apply(x, y);
  }

  /// R = B - Op X. Operators exposing a fused residual kernel (the sparse
  /// formats) get it; the fallback composes apply + waxpby, which produces
  /// the same bits (one subtraction per entry either way), so backends may
  /// fuse freely without perturbing residual histories.
  template <class Op>
  void residual(const Op& op, BlockCRef b, BlockCRef x, BlockRef r) const {
    if constexpr (requires { op.residual(b, x, r); }) {
      op.residual(b, x, r);
    } else {
      apply(op, x, r);
      subtract_from(b, r);
    }
  }

  real reduce_sum(real local) const { return local; }

  real dot(std::span<const real> x, std::span<const real> y) const {
    return reduce_sum(la::dot(x, y));
  }
  real norm2(std::span<const real> x) const { return std::sqrt(dot(x, x)); }
  void axpy(real a, std::span<const real> x, std::span<real> y) const {
    la::axpy(a, x, y);
  }
};

}  // namespace prom::la
