// The 3x3 block microkernel of the matrix-free element kernel
// (fem/matrix_free.cpp): "3x3 block times 3-vector, accumulated" over
// small per-quadrature-point tensors, in one fixed evaluation order
// (ascending c, one multiply-add per step) that rounds exactly like the
// reference scalar loop
//
//   for (r) for (c) acc[r] += blk[r*3+c] * xj[c];
//
// With T = RealPack it vectorizes across the dimension that is NOT the
// accumulation chain: lanes = elements, the whole 3x3 op per-lane scalar
// arithmetic in SoA layout. (The node-block BSR kernels in la/bsr.cpp run
// the same loop on plain reals: lane-gathering block rows into a pack
// cost 8x over scalar code on baseline x86-64.)
#pragma once

#include "common/config.h"
#include "la/simd.h"

namespace prom::la {

/// y(0..2) += m * x for a row-major 3x3 operand held per entry in T.
/// With T = real this is the reference scalar loop; with T = RealPack it
/// is the same microkernel at pack granularity (each SIMD lane an
/// independent 3x3 op — the matrix-free element kernel's layout, where a
/// lane is an element).
template <class T>
inline void block3_madd(const T* m, const T* x, T* y) {
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) y[r] += m[r * 3 + c] * x[c];
  }
}

}  // namespace prom::la
