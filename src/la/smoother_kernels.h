// The single smoother-driver implementations, templated over an execution
// backend (la/backend.h). la::Smoother (la/smoothers.h) — the one smoother
// type of the serial and the distributed hierarchies — dispatches here, so
// a smoothing step is the same arithmetic — including the fixed
// parallel_for grains of the intra-rank determinism contract — on every
// backend; only the operator application communicates. The point-block
// sweeps are called directly on node-block operators.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "common/config.h"
#include "common/error.h"
#include "common/flops.h"
#include "common/parallel.h"
#include "la/backend.h"
#include "la/dense.h"
#include "la/vec.h"
#include "obs/trace.h"

namespace prom::la {

/// Fixed chunk sizes (see common/parallel.h determinism contract).
constexpr idx kSmootherPointGrain = 8192;  // elementwise updates
constexpr idx kSmootherBlockGrain = 8;     // block-Jacobi blocks

/// Checks the shapes every sweep shares: b and x are n x k blocks.
inline void check_sweep_shapes(idx n, BlockCRef b, BlockCRef x) {
  PROM_CHECK(b.rows() == n && x.rows() == n && x.cols() == b.cols());
}

/// The point-block sweeps' elementwise pass on one column: for every
/// slot s of block row i, calls f(s, z) with z = (inv_i r_i)[s - BS i],
/// the row product summed in column order.
template <int BS, class F>
void pointblock_rows(std::span<const real> inv_blocks, const real* r, idx n,
                     const F& f) {
  common::parallel_for(
      0, n / BS, kSmootherPointGrain / BS, [&](idx ib, idx ie) {
        for (idx i = ib; i < ie; ++i) {
          const real* inv =
              inv_blocks.data() + static_cast<std::size_t>(i) * BS * BS;
          const real* ri = r + static_cast<std::size_t>(i) * BS;
          for (int rr = 0; rr < BS; ++rr) {
            real sum = 0;
            for (int c = 0; c < BS; ++c) sum += inv[rr * BS + c] * ri[c];
            f(static_cast<std::size_t>(i) * BS + rr, sum);
          }
        }
      });
}

/// One damped point-Jacobi step x += omega * D^{-1} (b - A x) on k
/// columns of local blocks: one operator pass serves every column, then
/// each column takes its elementwise update at the fixed grain, so column
/// j is bitwise identical to the k=1 sweep of that column. `inv_diag`
/// holds the inverted diagonal of the local rows.
template <class B, class Op>
  requires BackendFor<B, Op>
void jacobi_sweep(const B& be, const Op& a, std::span<const real> inv_diag,
                  real omega, BlockCRef b, BlockRef x) {
  const obs::Span span("smoother.jacobi");
  const idx n = be.local_n(a);
  const int ncol = b.cols();
  check_sweep_shapes(n, b, x);
  MultiVec r(n, ncol);
  be.residual(a, b, x, r);  // R = B - A X
  for (int j = 0; j < ncol; ++j) {
    const real* rj = r.col_data(j);
    real* xj = x.col_data(j);
    common::parallel_for(0, n, kSmootherPointGrain, [&](idx ib, idx ie) {
      for (idx i = ib; i < ie; ++i) {
        xj[i] += omega * inv_diag[i] * rj[i];
      }
    });
  }
  count_flops(4LL * n * ncol);
}

/// One damped block-Jacobi step X += omega * blkdiag(A)^{-1} (B - A X).
/// `blocks[k]` lists the local row indices of block k (a partition of the
/// local rows); `factors[k]` is its dense LDL^T, which solves all columns
/// of a block in one call (each bitwise equal to its k=1 solve).
template <class B, class Op>
  requires BackendFor<B, Op>
void block_jacobi_sweep(const B& be, const Op& a,
                        std::span<const std::vector<idx>> blocks,
                        std::span<const DenseLdlt> factors, real omega,
                        BlockCRef b, BlockRef x) {
  const obs::Span span("smoother.block_jacobi");
  const idx n = be.local_n(a);
  const int ncol = b.cols();
  check_sweep_shapes(n, b, x);
  MultiVec r(n, ncol);
  be.residual(a, b, x, r);
  // Blocks partition the rows, so block solves write disjoint slices of x
  // and parallelize without ordering concerns.
  common::parallel_for(
      0, static_cast<idx>(blocks.size()), kSmootherBlockGrain,
      [&](idx kb, idx ke) {
        // Gather the block's residual for every column (column j at
        // stride nb), solve all columns in one pass, scatter back.
        std::vector<real> rb;
        for (idx k = kb; k < ke; ++k) {
          const auto& block = blocks[k];
          const std::size_t nb = block.size();
          rb.resize(nb * ncol);
          for (int j = 0; j < ncol; ++j) {
            const real* rj = r.col_data(j);
            for (std::size_t li = 0; li < nb; ++li) {
              rb[j * nb + li] = rj[block[li]];
            }
          }
          factors[k].solve_mv(rb, rb, ncol, static_cast<idx>(nb));
          for (int j = 0; j < ncol; ++j) {
            real* xj = x.col_data(j);
            for (std::size_t li = 0; li < nb; ++li) {
              xj[block[li]] += omega * rb[j * nb + li];
            }
          }
        }
      });
  count_flops(2LL * n * ncol);
}

/// One Chebyshev smoothing pass of the given degree on the Jacobi-
/// preconditioned operator D^{-1}A, targeting [lmin, lmax]. The
/// recurrence scalars (theta, rho, …) depend only on the preset
/// eigenvalue bounds, so every column shares them.
template <class B, class Op>
  requires BackendFor<B, Op>
void chebyshev_sweep(const B& be, const Op& a, std::span<const real> inv_diag,
                     int degree, real lmin, real lmax, BlockCRef b,
                     BlockRef x) {
  const obs::Span span("smoother.chebyshev");
  const idx n = be.local_n(a);
  const int ncol = b.cols();
  check_sweep_shapes(n, b, x);
  const real theta = (lmax + lmin) / 2;
  const real delta = (lmax - lmin) / 2;
  const real sigma = theta / delta;
  real rho = 1 / sigma;

  MultiVec r(n, ncol), d(n, ncol), ad(n, ncol);
  be.residual(a, b, x, r);
  for (int j = 0; j < ncol; ++j) {
    const real* rj = r.col_data(j);
    real* dj = d.col_data(j);
    common::parallel_for(0, n, kSmootherPointGrain, [&](idx ib, idx ie) {
      for (idx i = ib; i < ie; ++i) dj[i] = inv_diag[i] * rj[i] / theta;
    });
  }
  for (int k = 0; k < degree; ++k) {
    for (int j = 0; j < ncol; ++j) axpy(1, d.col(j), x.col(j));
    if (k + 1 == degree) break;
    be.apply(a, d, ad);
    for (int j = 0; j < ncol; ++j) axpy(-1, ad.col(j), r.col(j));
    const real rho_new = 1 / (2 * sigma - rho);
    for (int j = 0; j < ncol; ++j) {
      const real* rj = r.col_data(j);
      real* dj = d.col_data(j);
      common::parallel_for(0, n, kSmootherPointGrain, [&](idx ib, idx ie) {
        for (idx i = ib; i < ie; ++i) {
          const real zi = inv_diag[i] * rj[i];
          dj[i] = rho_new * rho * dj[i] + 2 * rho_new / delta * zi;
        }
      });
    }
    rho = rho_new;
    count_flops(6LL * n * ncol);
  }
}

/// One damped point-block Jacobi step on a node-block operator:
/// X += omega * blkdiag(A)^{-1} (B - A X), where blkdiag(A) is the BS x BS
/// diagonal node block of each block row, inverted directly (the paper's
/// nodal smoother on BAIJ matrices). `inv_blocks` holds BS*BS reals per
/// local block row (e.g. Bsr::inverted_block_diagonal()); vectors live on
/// the block space, so local_n(a) must be a multiple of BS.
template <int BS, class B, class Op>
  requires BackendFor<B, Op>
void pointblock_jacobi_sweep(const B& be, const Op& a,
                             std::span<const real> inv_blocks, real omega,
                             BlockCRef b, BlockRef x) {
  const obs::Span span("smoother.pointblock_jacobi");
  const idx n = be.local_n(a);
  const int ncol = b.cols();
  PROM_CHECK(n % BS == 0 && static_cast<idx>(inv_blocks.size()) == n * BS);
  check_sweep_shapes(n, b, x);
  MultiVec r(n, ncol);
  be.residual(a, b, x, r);
  for (int j = 0; j < ncol; ++j) {
    real* xj = x.col_data(j);
    pointblock_rows<BS>(inv_blocks, r.col_data(j), n,
                        [&](std::size_t i, real z) { xj[i] += omega * z; });
  }
  count_flops((2LL * BS + 2) * n * ncol);
}

/// One Chebyshev smoothing pass of the given degree preconditioned by the
/// inverted diagonal node blocks (blkdiag(A)^{-1} A), targeting
/// [lmin, lmax] — the point-block analogue of chebyshev_sweep.
template <int BS, class B, class Op>
  requires BackendFor<B, Op>
void pointblock_chebyshev_sweep(const B& be, const Op& a,
                                std::span<const real> inv_blocks, int degree,
                                real lmin, real lmax, BlockCRef b,
                                BlockRef x) {
  const obs::Span span("smoother.pointblock_chebyshev");
  const idx n = be.local_n(a);
  const int ncol = b.cols();
  PROM_CHECK(n % BS == 0 && static_cast<idx>(inv_blocks.size()) == n * BS);
  check_sweep_shapes(n, b, x);
  const real theta = (lmax + lmin) / 2;
  const real delta = (lmax - lmin) / 2;
  const real sigma = theta / delta;
  real rho = 1 / sigma;

  MultiVec r(n, ncol), d(n, ncol), ad(n, ncol);
  be.residual(a, b, x, r);
  for (int j = 0; j < ncol; ++j) {
    real* dj = d.col_data(j);
    pointblock_rows<BS>(inv_blocks, r.col_data(j), n,
                        [&](std::size_t i, real z) { dj[i] = z / theta; });
  }
  for (int k = 0; k < degree; ++k) {
    for (int j = 0; j < ncol; ++j) axpy(1, d.col(j), x.col(j));
    if (k + 1 == degree) break;
    be.apply(a, d, ad);
    for (int j = 0; j < ncol; ++j) axpy(-1, ad.col(j), r.col(j));
    const real rho_new = 1 / (2 * sigma - rho);
    for (int j = 0; j < ncol; ++j) {
      real* dj = d.col_data(j);
      pointblock_rows<BS>(inv_blocks, r.col_data(j), n,
                          [&](std::size_t i, real z) {
                            dj[i] = rho_new * rho * dj[i] +
                                    2 * rho_new / delta * z;
                          });
    }
    rho = rho_new;
    count_flops((2LL * BS + 6) * n * ncol);
  }
}

/// Power iteration for the largest eigenvalue of D^{-1}A (15 steps from a
/// deterministic start). `row_offset` is the global index of the first
/// local row, so the start vector — and hence the estimate — is a function
/// of the global problem only, not of the distribution.
template <class B, class Op>
  requires BackendFor<B, Op>
real estimate_lambda_max(const B& be, const Op& a,
                         std::span<const real> inv_diag, idx row_offset) {
  const idx n = be.local_n(a);
  std::vector<real> v(static_cast<std::size_t>(n)), av(v.size());
  for (idx i = 0; i < n; ++i) v[i] = 1 + ((row_offset + i) % 7) * 0.1;
  real lambda = 1;
  for (int it = 0; it < 15; ++it) {
    be.apply(a, v, av);
    for (idx i = 0; i < n; ++i) av[i] *= inv_diag[i];
    lambda = be.norm2(av);
    if (lambda == 0) break;
    for (idx i = 0; i < n; ++i) v[i] = av[i] / lambda;
  }
  return lambda;
}

}  // namespace prom::la
