#include "la/smoothers.h"

#include <algorithm>

#include "common/error.h"

namespace prom::la {
namespace {

/// Extracts and factors (dense LDL^T) the diagonal blocks of `a` listed
/// in `blocks`.
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

}  // namespace

std::vector<real> inverted_diagonal(const Csr& a) {
  std::vector<real> d = a.diagonal();
  for (real& v : d) {
    PROM_CHECK_MSG(v != real{0}, "smoother needs a nonzero diagonal");
    v = real{1} / v;
  }
  return d;
}

Smoother::Smoother(const Csr& diag, SmootherKind kind, real omega,
                   int degree, std::vector<std::vector<idx>> blocks)
    : kind_(kind), omega_(omega), degree_(std::max(1, degree)) {
  PROM_CHECK(diag.nrows == diag.ncols);
  if (kind != SmootherKind::kBlockJacobi) {
    inv_diag_ = inverted_diagonal(diag);
    return;
  }
  // Verify the blocks partition [0, n).
  std::vector<char> seen(static_cast<std::size_t>(diag.nrows), 0);
  idx total = 0;
  for (const auto& block : blocks) {
    for (idx i : block) {
      PROM_CHECK(i >= 0 && i < diag.nrows);
      PROM_CHECK_MSG(!seen[i], "block Jacobi blocks overlap");
      seen[i] = 1;
      ++total;
    }
  }
  PROM_CHECK_MSG(total == diag.nrows,
                 "block Jacobi blocks must cover all rows");
  blocks_ = std::move(blocks);
  factors_ = factor_diagonal_blocks(diag, blocks_);
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
