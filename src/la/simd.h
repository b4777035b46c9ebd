// Fixed-width SIMD pack for the explicitly vectorized kernels (the
// matrix-free element kernel in fem/matrix_free.cpp and its 3x3 block
// microkernel in la/block_kernels.h).
//
// The width is a compile-time constant, kSimdLanes = 4 doubles (one AVX
// register, two SSE registers, or four scalar ops — the compiler lowers the
// generic vector to whatever the target provides). It is deliberately NOT
// runtime-dispatched: every lane performs an independent IEEE-754 binary64
// operation, identical to the scalar expression, so results are the same
// bits on every ISA and at every thread count — lane width is part of the
// data layout, not of the rounding behaviour. (The project builds without
// -ffast-math and without FMA contraction, see the top-level CMakeLists.)
//
// On GNU-compatible compilers the pack is a vector_size extension type and
// the operators compile to vector instructions; elsewhere a plain array
// with per-lane loops produces the same values (just slower).
#pragma once

#include <cstring>

#include "common/config.h"

namespace prom::la {

/// Lanes per pack. Chosen as 256 bits of binary64: wide enough to fill an
/// AVX unit, narrow enough that tail padding (inert lanes in the last
/// element batch) stays cheap on small meshes.
inline constexpr int kSimdLanes = 4;

#if defined(__GNUC__) || defined(__clang__)
#define PROM_SIMD_VECTOR_EXT 1
#endif

/// A pack of kSimdLanes doubles with elementwise arithmetic.
struct RealPack {
#ifdef PROM_SIMD_VECTOR_EXT
  typedef real native_t __attribute__((vector_size(kSimdLanes * sizeof(real))));
  native_t v;
#else
  real v[kSimdLanes];
#endif

  friend RealPack operator+(RealPack a, RealPack b) {
#ifdef PROM_SIMD_VECTOR_EXT
    return {a.v + b.v};
#else
    RealPack r;
    for (int l = 0; l < kSimdLanes; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
#endif
  }
  friend RealPack operator-(RealPack a, RealPack b) {
#ifdef PROM_SIMD_VECTOR_EXT
    return {a.v - b.v};
#else
    RealPack r;
    for (int l = 0; l < kSimdLanes; ++l) r.v[l] = a.v[l] - b.v[l];
    return r;
#endif
  }
  friend RealPack operator*(RealPack a, RealPack b) {
#ifdef PROM_SIMD_VECTOR_EXT
    return {a.v * b.v};
#else
    RealPack r;
    for (int l = 0; l < kSimdLanes; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
#endif
  }
  RealPack& operator+=(RealPack o) { return *this = *this + o; }
  RealPack& operator-=(RealPack o) { return *this = *this - o; }
  RealPack& operator*=(RealPack o) { return *this = *this * o; }
};

/// All lanes zero.
inline RealPack pack_zero() {
  RealPack r;
  std::memset(&r, 0, sizeof(r));
  return r;
}

/// All lanes = s.
inline RealPack pack_broadcast(real s) {
  RealPack r;
  for (int l = 0; l < kSimdLanes; ++l) r.v[l] = s;
  return r;
}

/// Unaligned load of kSimdLanes contiguous doubles.
inline RealPack pack_load(const real* p) {
  RealPack r;
  std::memcpy(&r, p, sizeof(r));
  return r;
}

/// Unaligned store of kSimdLanes contiguous doubles.
inline void pack_store(real* p, RealPack a) { std::memcpy(p, &a, sizeof(a)); }

/// Single lane write (lane index must be in [0, kSimdLanes)).
inline void pack_set_lane(RealPack& a, int lane, real s) { a.v[lane] = s; }

}  // namespace prom::la
