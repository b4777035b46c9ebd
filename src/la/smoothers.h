// Multigrid smoothers (§2: "simple iterative methods ... reduce the high
// frequency error"). The paper's configuration is one pre- and one
// post-smoothing step of damped Richardson preconditioned with block
// Jacobi, the blocks produced by a graph partitioner at 6 blocks per 1,000
// unknowns (§7.2). Point Jacobi and Chebyshev are the alternatives.
//
// A smoother performs the stationary update  x <- x + M^{-1} (b - A x)
// (possibly damped); all smoothers here are symmetric in the energy sense
// required for use inside a CG preconditioner. la::Smoother is one value
// type for every kind and every backend: it holds only what a sweep reads
// and runs the sweeps of la/smoother_kernels.h on whatever operator view
// the caller passes, so the serial and the distributed hierarchies build
// and apply the same object.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/config.h"
#include "la/csr.h"
#include "la/dense.h"
#include "la/multivec.h"
#include "la/smoother_kernels.h"

namespace prom::la {

enum class SmootherKind : std::uint8_t { kJacobi, kBlockJacobi, kChebyshev };

class Smoother {
 public:
  Smoother() = default;

  /// Builds a `kind` smoother for the operator `a`, applied through `be`,
  /// from `diag`: a's local diagonal block (owned rows x owned columns —
  /// the whole matrix on one rank), read here and not kept. kJacobi and
  /// kBlockJacobi damp by `omega`; kBlockJacobi factors the diagonal
  /// blocks listed in `blocks`, which must partition the local rows;
  /// kChebyshev of `degree` targets [lmax/30, lmax], lmax being 1.1 times
  /// a power-iteration estimate of the largest eigenvalue of D^{-1}A
  /// started from the global row index `row_offset` of the first local
  /// row. Collective when `be` communicates.
  template <class B, class Op>
    requires BackendFor<B, Op>
  static Smoother build(const B& be, const Op& a, const Csr& diag,
                        SmootherKind kind, real omega, int degree = 3,
                        std::vector<std::vector<idx>> blocks = {},
                        idx row_offset = 0) {
    Smoother s(diag, kind, omega, degree, std::move(blocks));
    if (kind == SmootherKind::kChebyshev) {
      const real lambda = estimate_lambda_max(be, a, s.inv_diag_, row_offset);
      s.lmax_ = 1.1 * std::max(lambda, real{1e-12});
      s.lmin_ = s.lmax_ / 30;
    }
    return s;
  }

  /// One smoothing step on k columns of the local rows, updating x in
  /// place (a single vector is the k=1 block); `a` is the operator the
  /// smoother was built for, in any format with the same entries. Column j
  /// is bitwise identical to the k=1 step on that column. Collective when
  /// `be` communicates.
  template <class B, class Op>
    requires BackendFor<B, Op>
  void smooth(const B& be, const Op& a, BlockCRef b, BlockRef x) const {
    switch (kind_) {
      case SmootherKind::kJacobi:
        jacobi_sweep(be, a, inv_diag_, omega_, b, x);
        break;
      case SmootherKind::kBlockJacobi:
        block_jacobi_sweep(be, a, blocks_, factors_, omega_, b, x);
        break;
      case SmootherKind::kChebyshev:
        chebyshev_sweep(be, a, inv_diag_, degree_, lmin_, lmax_, b, x);
        break;
    }
  }

  /// Local smoothing (adaptive refinement levels, arXiv:1904.03317): the
  /// step above with only the local rows listed in `rows` taking its
  /// update. The full step runs on a scratch copy of x, so a distributed
  /// step keeps its exchange schedule on every rank.
  template <class B, class Op>
    requires BackendFor<B, Op>
  void smooth_rows(const B& be, const Op& a, std::span<const idx> rows,
                   BlockCRef b, BlockRef x) const {
    MultiVec tmp(x);
    smooth(be, a, b, tmp);
    for (int j = 0; j < x.cols(); ++j) {
      const real* tj = tmp.col_data(j);
      real* xj = x.col_data(j);
      for (idx i : rows) xj[i] = tj[i];
    }
  }

  idx num_blocks() const { return static_cast<idx>(blocks_.size()); }
  real lambda_max() const { return lmax_; }

 private:
  Smoother(const Csr& diag, SmootherKind kind, real omega, int degree,
           std::vector<std::vector<idx>> blocks);

  SmootherKind kind_ = SmootherKind::kBlockJacobi;
  real omega_ = 0;
  std::vector<real> inv_diag_;            ///< kJacobi, kChebyshev
  std::vector<std::vector<idx>> blocks_;  ///< kBlockJacobi
  std::vector<DenseLdlt> factors_;        ///< kBlockJacobi, one per block
  int degree_ = 0;                        ///< kChebyshev
  real lmin_ = 0, lmax_ = 0;              ///< kChebyshev
};

/// Partitions [0, n) into contiguous index blocks of roughly equal size —
/// the fallback when no graph partitioner is supplied.
std::vector<std::vector<idx>> contiguous_blocks(idx n, idx nblocks);

/// 1 / diag(a), checked nonzero — the diagonal scaling every point-wise
/// smoother needs.
std::vector<real> inverted_diagonal(const Csr& a);

}  // namespace prom::la
