#include "la/smoothers.h"

#include <algorithm>

#include "common/error.h"
#include "common/flops.h"
#include "la/operator.h"
#include "la/smoother_kernels.h"
#include "la/vec.h"

namespace prom::la {

std::vector<real> inverted_diagonal(const Csr& a) {
  std::vector<real> d = a.diagonal();
  for (real& v : d) {
    PROM_CHECK_MSG(v != real{0}, "smoother needs a nonzero diagonal");
    v = real{1} / v;
  }
  return d;
}

JacobiSmoother::JacobiSmoother(const Csr& a, real omega)
    : a_(&a), omega_(omega), inv_diag_(inverted_diagonal(a)) {
  PROM_CHECK(a.nrows == a.ncols);
}

void JacobiSmoother::smooth(BlockCRef b, BlockRef x) const {
  jacobi_sweep(SerialBackend{}, CsrOperator(*a_), inv_diag_, omega_, b, x);
}

SymmetricGaussSeidel::SymmetricGaussSeidel(const Csr& a)
    : a_(&a), inv_diag_(inverted_diagonal(a)) {
  PROM_CHECK(a.nrows == a.ncols);
}

// Gauss–Seidel is inherently sequential (each row update reads the
// previous ones), so it stays a serial-only baseline with no backend-
// generic driver; the distributed hierarchy substitutes processor-block
// Jacobi, exactly as the paper's parallel smoother does.
void SymmetricGaussSeidel::smooth(BlockCRef b, BlockRef x) const {
  const idx n = a_->nrows;
  PROM_CHECK(b.rows() == n && x.rows() == n && x.cols() == b.cols());
  for (int j = 0; j < b.cols(); ++j) {
    const real* bj = b.col_data(j);
    real* xj = x.col_data(j);
    auto sweep_row = [&](idx i) {
      real sum = bj[i];
      for (nnz_t k = a_->rowptr[i]; k < a_->rowptr[i + 1]; ++k) {
        const idx c = a_->colidx[k];
        if (c != i) sum -= a_->vals[k] * xj[c];
      }
      xj[i] = sum * inv_diag_[i];
    };
    for (idx i = 0; i < n; ++i) sweep_row(i);
    for (idx i = n - 1; i >= 0; --i) sweep_row(i);
  }
  count_flops((4 * a_->nnz() + 4LL * n) * b.cols());
}

BlockJacobiSmoother::BlockJacobiSmoother(const Csr& a,
                                         std::vector<std::vector<idx>> blocks,
                                         real omega)
    : a_(&a), omega_(omega), blocks_(std::move(blocks)) {
  PROM_CHECK(a.nrows == a.ncols);
  // Verify the blocks partition [0, n).
  std::vector<char> seen(static_cast<std::size_t>(a.nrows), 0);
  idx total = 0;
  for (const auto& block : blocks_) {
    for (idx i : block) {
      PROM_CHECK(i >= 0 && i < a.nrows);
      PROM_CHECK_MSG(!seen[i], "block Jacobi blocks overlap");
      seen[i] = 1;
      ++total;
    }
  }
  PROM_CHECK_MSG(total == a.nrows, "block Jacobi blocks must cover all rows");
  factors_ = factor_diagonal_blocks(a, blocks_);
}

void BlockJacobiSmoother::smooth(BlockCRef b, BlockRef x) const {
  block_jacobi_sweep(SerialBackend{}, CsrOperator(*a_), blocks_, factors_,
                     omega_, b, x);
}

std::vector<DenseLdlt> factor_diagonal_blocks(
    const Csr& a, std::span<const std::vector<idx>> blocks) {
  std::vector<DenseLdlt> factors;
  factors.reserve(blocks.size());
  std::vector<idx> local_of(static_cast<std::size_t>(a.nrows), kInvalidIdx);
  for (const auto& block : blocks) {
    const idx bn = static_cast<idx>(block.size());
    // Gather the dense diagonal block. Blocks are small (≈ 170 unknowns at
    // the paper's 6-per-1000 density), so dense extraction is fine.
    for (idx li = 0; li < bn; ++li) local_of[block[li]] = li;
    DenseMatrix blk(bn, bn);
    real max_diag = 0;
    for (idx li = 0; li < bn; ++li) {
      const idx gi = block[li];
      for (nnz_t k = a.rowptr[gi]; k < a.rowptr[gi + 1]; ++k) {
        if (a.colidx[k] >= a.nrows) continue;  // ghost column (dist levels)
        const idx lj = local_of[a.colidx[k]];
        if (lj != kInvalidIdx) blk(li, lj) = a.vals[k];
        if (a.colidx[k] == gi) max_diag = std::max(max_diag, a.vals[k]);
      }
    }
    factors.emplace_back(blk);
    // A diagonal block of an SPD matrix is SPD in exact arithmetic, but
    // ill-conditioned (or, inside Newton, mildly indefinite) operators can
    // defeat the unpivoted LDL^T. Escalate a relative diagonal shift until
    // the factorization succeeds — the standard manufactured-SPD smoother
    // fallback (cf. PETSc's pc_factor_shift); a strongly shifted block
    // degrades the smoother, never correctness.
    if (max_diag <= 0) max_diag = 1;
    for (real shift = 1e-12 * max_diag; !factors.back().ok(); shift *= 10) {
      DenseMatrix shifted = blk;
      for (idx li = 0; li < bn; ++li) shifted(li, li) += shift;
      factors.back() = DenseLdlt(shifted);
      PROM_CHECK_MSG(shift < 1e30, "block Jacobi shift escalation failed");
    }
    for (idx li = 0; li < bn; ++li) local_of[block[li]] = kInvalidIdx;
  }
  return factors;
}

ChebyshevSmoother::ChebyshevSmoother(const Csr& a, int degree,
                                     real eig_ratio)
    : a_(&a), degree_(std::max(1, degree)),
      inv_diag_(inverted_diagonal(a)) {
  PROM_CHECK(a.nrows == a.ncols);
  const real lambda = estimate_lambda_max(SerialBackend{}, CsrOperator(a),
                                          inv_diag_, /*row_offset=*/0);
  lmax_ = 1.1 * std::max(lambda, real{1e-12});
  lmin_ = lmax_ / eig_ratio;
}

void ChebyshevSmoother::smooth(BlockCRef b, BlockRef x) const {
  chebyshev_sweep(SerialBackend{}, CsrOperator(*a_), inv_diag_, degree_,
                  lmin_, lmax_, b, x);
}

std::vector<std::vector<idx>> contiguous_blocks(idx n, idx nblocks) {
  PROM_CHECK(n >= 0 && nblocks >= 1);
  nblocks = std::min<idx>(nblocks, std::max<idx>(n, 1));
  std::vector<std::vector<idx>> blocks(static_cast<std::size_t>(nblocks));
  for (idx i = 0; i < n; ++i) {
    const idx k = static_cast<idx>(
        (static_cast<nnz_t>(i) * nblocks) / std::max<idx>(n, 1));
    blocks[k].push_back(i);
  }
  // Remove empty blocks (possible when nblocks > n).
  std::erase_if(blocks, [](const auto& b) { return b.empty(); });
  return blocks;
}

}  // namespace prom::la
