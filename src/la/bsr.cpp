#include "la/bsr.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/flops.h"
#include "common/parallel.h"

namespace prom::la {
namespace {

/// Block rows per parallel chunk. Fixed constants: the chunk decomposition
/// is part of the bit-determinism contract (common/parallel.h), so it may
/// depend on the matrix but never on the thread count. 128 block rows of
/// BS=3 cover ~the same scalar span as la/csr.cpp's kRowGrain.
constexpr idx kBlockRowGrain = 128;
constexpr idx kBlockSpgemmGrain = 512;

/// Inverts a dense BS x BS row-major block by Gauss-Jordan with partial
/// pivoting. Returns false on a (numerically) singular block.
template <int BS>
bool invert_block(const real* in, real* out) {
  real aug[BS][2 * BS];
  for (int r = 0; r < BS; ++r) {
    for (int c = 0; c < BS; ++c) {
      aug[r][c] = in[r * BS + c];
      aug[r][BS + c] = (r == c) ? real{1} : real{0};
    }
  }
  for (int col = 0; col < BS; ++col) {
    int piv = col;
    for (int r = col + 1; r < BS; ++r) {
      if (std::fabs(aug[r][col]) > std::fabs(aug[piv][col])) piv = r;
    }
    if (aug[piv][col] == real{0}) return false;
    if (piv != col) {
      for (int c = 0; c < 2 * BS; ++c) std::swap(aug[piv][c], aug[col][c]);
    }
    const real inv_p = real{1} / aug[col][col];
    for (int c = 0; c < 2 * BS; ++c) aug[col][c] *= inv_p;
    for (int r = 0; r < BS; ++r) {
      if (r == col) continue;
      const real f = aug[r][col];
      if (f == real{0}) continue;
      for (int c = 0; c < 2 * BS; ++c) aug[r][c] -= f * aug[col][c];
    }
  }
  for (int r = 0; r < BS; ++r) {
    for (int c = 0; c < BS; ++c) out[r * BS + c] = aug[r][BS + c];
  }
  return true;
}

/// Columns j0 .. j0+K-1 of block rows [tb, te) of the row list: one pass
/// over each block row feeds K x BS accumulators, and emit(i, j, acc)
/// stores block row i's BS results for column j. K is a compile-time
/// width and every small loop is fully unrolled (GCC -O2 does not do so on
/// its own), so the accumulators live in registers. Every scalar row of
/// every column starts from 0 and adds its terms in ascending block-column
/// then ascending scalar-column order — the plain two-loop
/// `acc[r] += blk[r*BS+c] * x[c]` — which is the scalar CSR walk of the
/// same row, so the result does not depend on K and matches Csr bitwise.
template <int BS, int K, class Emit>
void brows_fixed(const Bsr<BS>& a, const real* const* xp, int j0,
                 std::span<const idx> brows, idx tb, idx te,
                 const Emit& emit) {
  constexpr int kBlockSize = BS * BS;
  for (idx t = tb; t < te; ++t) {
    const idx i = brows.empty() ? t : brows[t];
    real acc[K][BS];
#pragma GCC unroll 8
    for (int j = 0; j < K; ++j) {
#pragma GCC unroll 8
      for (int r = 0; r < BS; ++r) acc[j][r] = 0;
    }
    for (nnz_t kk = a.browptr[i]; kk < a.browptr[i + 1]; ++kk) {
      const real* blk =
          a.vals.data() + static_cast<std::size_t>(kk) * kBlockSize;
      const std::size_t xoff = static_cast<std::size_t>(a.bcolidx[kk]) * BS;
#pragma GCC unroll 8
      for (int j = 0; j < K; ++j) {
        const real* xj = xp[j0 + j] + xoff;
#pragma GCC unroll 8
        for (int r = 0; r < BS; ++r) {
#pragma GCC unroll 8
          for (int c = 0; c < BS; ++c) acc[j][r] += blk[r * BS + c] * xj[c];
        }
      }
    }
#pragma GCC unroll 8
    for (int j = 0; j < K; ++j) emit(i, j0 + j, acc[j]);
  }
}

/// The one block-row kernel behind every BSR product and residual, single-
/// and multi-vector (the counterpart of la/csr.cpp's rows_core): `xp`
/// holds the k input columns, each chunk of block rows runs the
/// fixed-width instances for_width_chunks picks, and the flops are those
/// of the block products. An empty `brows` means "all block rows in
/// order" (callers of the *_brows API return early on an empty list).
template <int BS, class Emit>
void brows_core(const Bsr<BS>& a, std::span<const real* const> xp,
                std::span<const idx> brows, const Emit& emit) {
  const int k = static_cast<int>(xp.size());
  const idx n = brows.empty() ? a.nbrows : static_cast<idx>(brows.size());
  common::parallel_for(0, n, kBlockRowGrain, [&](idx tb, idx te) {
    for_width_chunks(k, [&](auto width, int j0) {
      brows_fixed<BS, decltype(width)::value>(a, xp.data(), j0, brows, tb,
                                              te, emit);
    });
    nnz_t sub = 0;
    if (brows.empty()) {
      sub = a.browptr[te] - a.browptr[tb];
    } else {
      for (idx t = tb; t < te; ++t) {
        sub += a.browptr[brows[t] + 1] - a.browptr[brows[t]];
      }
    }
    count_flops(2 * BS * BS * sub * k);
  });
}

template <int BS>
void check_shapes(const Bsr<BS>& a, BlockCRef x, BlockCRef y) {
  PROM_CHECK(x.rows() == a.cols() && y.rows() == a.rows() &&
             x.cols() == y.cols() && x.cols() >= 1);
}

/// Y = A X on the listed block rows (all when empty).
template <int BS>
void product(const Bsr<BS>& a, BlockCRef x, BlockRef y,
             std::span<const idx> brows) {
  const auto xp = col_ptrs(x);
  const auto yp = col_ptrs(y);
  brows_core(a, {xp.data(), static_cast<std::size_t>(x.cols())}, brows,
             [&](idx i, int j, const real* acc) {
               real* yi = yp[j] + static_cast<std::size_t>(i) * BS;
               for (int r = 0; r < BS; ++r) yi[r] = acc[r];
             });
}

/// R = B - A X on the listed block rows (all when empty).
template <int BS>
void fused_residual(const Bsr<BS>& a, BlockCRef b, BlockCRef x, BlockRef r,
                    std::span<const idx> brows) {
  PROM_CHECK(b.rows() == a.rows() && b.cols() == x.cols());
  const auto xp = col_ptrs(x);
  const auto bp = col_ptrs(b);
  const auto rp = col_ptrs(r);
  brows_core(a, {xp.data(), static_cast<std::size_t>(x.cols())}, brows,
             [&](idx i, int j, const real* acc) {
               const std::size_t base = static_cast<std::size_t>(i) * BS;
               for (int rr = 0; rr < BS; ++rr) {
                 rp[j][base + rr] = bp[j][base + rr] - acc[rr];
               }
             });
  const idx n = brows.empty() ? a.nbrows : static_cast<idx>(brows.size());
  count_flops(static_cast<std::int64_t>(n) * BS * x.cols());
}

}  // namespace

template <int BS>
void Bsr<BS>::spmv(BlockCRef x, BlockRef y) const {
  check_shapes(*this, x, y);
  product(*this, x, y, {});
}

template <int BS>
void Bsr<BS>::residual(BlockCRef b, BlockCRef x, BlockRef r) const {
  check_shapes(*this, x, r);
  fused_residual(*this, b, x, r, {});
}

template <int BS>
void Bsr<BS>::spmv_brows(BlockCRef x, BlockRef y,
                         std::span<const idx> brows) const {
  check_shapes(*this, x, y);
  if (!brows.empty()) product(*this, x, y, brows);
}

template <int BS>
void Bsr<BS>::residual_brows(BlockCRef b, BlockCRef x, BlockRef r,
                             std::span<const idx> brows) const {
  check_shapes(*this, x, r);
  if (!brows.empty()) fused_residual(*this, b, x, r, brows);
}

template <int BS>
std::vector<real> Bsr<BS>::apply(std::span<const real> x) const {
  std::vector<real> y(static_cast<std::size_t>(rows()));
  spmv(x, y);
  return y;
}

template <int BS>
real Bsr<BS>::at(idx i, idx j) const {
  PROM_CHECK(i >= 0 && i < rows() && j >= 0 && j < cols());
  const idx bi = i / BS, bj = j / BS;
  const auto begin = bcolidx.begin() + browptr[bi];
  const auto end = bcolidx.begin() + browptr[bi + 1];
  const auto it = std::lower_bound(begin, end, bj);
  if (it == end || *it != bj) return 0;
  const std::size_t k = static_cast<std::size_t>(it - bcolidx.begin());
  return vals[k * kBlockSize + (i % BS) * BS + (j % BS)];
}

template <int BS>
Bsr<BS> Bsr<BS>::transposed() const {
  Bsr t;
  t.nbrows = nbcols;
  t.nbcols = nbrows;
  t.browptr.assign(static_cast<std::size_t>(nbcols) + 1, 0);
  for (idx j : bcolidx) t.browptr[j + 1]++;
  for (idx j = 0; j < nbcols; ++j) t.browptr[j + 1] += t.browptr[j];
  t.bcolidx.resize(bcolidx.size());
  t.vals.resize(vals.size());
  std::vector<nnz_t> next(t.browptr.begin(), t.browptr.end() - 1);
  for (idx i = 0; i < nbrows; ++i) {
    for (nnz_t k = browptr[i]; k < browptr[i + 1]; ++k) {
      const nnz_t pos = next[bcolidx[k]]++;
      t.bcolidx[pos] = i;
      const real* src = vals.data() + static_cast<std::size_t>(k) * kBlockSize;
      real* dst = t.vals.data() + static_cast<std::size_t>(pos) * kBlockSize;
      for (int r = 0; r < BS; ++r) {
        for (int c = 0; c < BS; ++c) dst[c * BS + r] = src[r * BS + c];
      }
    }
  }
  return t;  // block columns sorted because block rows were walked in order
}

template <int BS>
std::vector<real> Bsr<BS>::diagonal() const {
  std::vector<real> d(static_cast<std::size_t>(rows()), real{0});
  const std::vector<real> blocks = block_diagonal();
  const idx n = std::min(nbrows, nbcols);
  for (idx i = 0; i < n; ++i) {
    for (int r = 0; r < BS; ++r) {
      d[static_cast<std::size_t>(i) * BS + r] =
          blocks[static_cast<std::size_t>(i) * kBlockSize + r * BS + r];
    }
  }
  return d;
}

template <int BS>
std::vector<real> Bsr<BS>::block_diagonal() const {
  std::vector<real> blocks(
      static_cast<std::size_t>(nbrows) * kBlockSize, real{0});
  const idx n = std::min(nbrows, nbcols);
  for (idx i = 0; i < n; ++i) {
    const auto begin = bcolidx.begin() + browptr[i];
    const auto end = bcolidx.begin() + browptr[i + 1];
    const auto it = std::lower_bound(begin, end, i);
    if (it == end || *it != i) continue;
    const std::size_t k = static_cast<std::size_t>(it - bcolidx.begin());
    std::copy_n(vals.begin() + k * kBlockSize, kBlockSize,
                blocks.begin() + static_cast<std::size_t>(i) * kBlockSize);
  }
  return blocks;
}

template <int BS>
std::vector<real> Bsr<BS>::inverted_block_diagonal() const {
  PROM_CHECK(nbrows == nbcols);
  std::vector<real> blocks = block_diagonal();
  std::vector<real> inv(blocks.size(), real{0});
  for (idx i = 0; i < nbrows; ++i) {
    const real* in = blocks.data() + static_cast<std::size_t>(i) * kBlockSize;
    real* out = inv.data() + static_cast<std::size_t>(i) * kBlockSize;
    bool zero = true;
    for (int e = 0; e < kBlockSize; ++e) zero = zero && in[e] == real{0};
    if (zero) {
      // No stored diagonal block: treat as identity so the point-block
      // smoothers stay well-defined on padding rows.
      for (int r = 0; r < BS; ++r) out[r * BS + r] = 1;
      continue;
    }
    PROM_CHECK_MSG(invert_block<BS>(in, out),
                   "singular diagonal node block in point-block smoother");
  }
  return inv;
}

template <int BS>
Csr Bsr<BS>::to_csr() const {
  Csr m;
  m.nrows = rows();
  m.ncols = cols();
  m.rowptr.assign(static_cast<std::size_t>(m.nrows) + 1, 0);
  for (idx i = 0; i < nbrows; ++i) {
    const nnz_t row_blocks = browptr[i + 1] - browptr[i];
    for (int r = 0; r < BS; ++r) {
      m.rowptr[static_cast<std::size_t>(i) * BS + r + 1] = row_blocks * BS;
    }
  }
  for (idx i = 0; i < m.nrows; ++i) m.rowptr[i + 1] += m.rowptr[i];
  m.colidx.resize(static_cast<std::size_t>(m.rowptr[m.nrows]));
  m.vals.resize(m.colidx.size());
  for (idx i = 0; i < nbrows; ++i) {
    for (int r = 0; r < BS; ++r) {
      nnz_t pos = m.rowptr[static_cast<std::size_t>(i) * BS + r];
      for (nnz_t k = browptr[i]; k < browptr[i + 1]; ++k) {
        const real* blk =
            vals.data() + static_cast<std::size_t>(k) * kBlockSize;
        for (int c = 0; c < BS; ++c) {
          m.colidx[pos] = bcolidx[k] * BS + c;
          m.vals[pos] = blk[r * BS + c];
          ++pos;
        }
      }
    }
  }
  return m;
}

template <int BS>
Bsr<BS> Bsr<BS>::from_csr(const Csr& a) {
  PROM_CHECK_MSG(a.nrows % BS == 0 && a.ncols % BS == 0,
                 "Bsr::from_csr needs dimensions divisible by the block size");
  Bsr m;
  m.nbrows = a.nrows / BS;
  m.nbcols = a.ncols / BS;
  m.browptr.assign(static_cast<std::size_t>(m.nbrows) + 1, 0);
  // Pass 1: per block row, the sorted union of the scalar rows' block
  // columns (scalar columns are sorted, so each row contributes a sorted
  // run and a merge via marker + sort stays cheap).
  std::vector<idx> marker(static_cast<std::size_t>(m.nbcols), kInvalidIdx);
  std::vector<std::vector<idx>> row_bcols(static_cast<std::size_t>(m.nbrows));
  for (idx bi = 0; bi < m.nbrows; ++bi) {
    auto& bcols = row_bcols[bi];
    for (int r = 0; r < BS; ++r) {
      const idx i = bi * BS + r;
      for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
        const idx bj = a.colidx[k] / BS;
        if (marker[bj] != bi) {
          marker[bj] = bi;
          bcols.push_back(bj);
        }
      }
    }
    std::sort(bcols.begin(), bcols.end());
    m.browptr[bi + 1] = m.browptr[bi] + static_cast<nnz_t>(bcols.size());
  }
  m.bcolidx.resize(static_cast<std::size_t>(m.browptr[m.nbrows]));
  m.vals.assign(m.bcolidx.size() * kBlockSize, real{0});
  // Pass 2: scatter values into their blocks.
  for (idx bi = 0; bi < m.nbrows; ++bi) {
    const nnz_t base = m.browptr[bi];
    const auto& bcols = row_bcols[bi];
    std::copy(bcols.begin(), bcols.end(), m.bcolidx.begin() + base);
    for (int r = 0; r < BS; ++r) {
      const idx i = bi * BS + r;
      for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
        const idx bj = a.colidx[k] / BS;
        const auto it = std::lower_bound(bcols.begin(), bcols.end(), bj);
        const nnz_t pos = base + static_cast<nnz_t>(it - bcols.begin());
        m.vals[static_cast<std::size_t>(pos) * kBlockSize + r * BS +
               a.colidx[k] % BS] = a.vals[k];
      }
    }
  }
  return m;
}

template <int BS>
Bsr<BS> Bsr<BS>::from_block_triplets(
    idx nbrows, idx nbcols, std::span<const BlockTriplet<BS>> triplets) {
  std::vector<const BlockTriplet<BS>*> t;
  t.reserve(triplets.size());
  for (const auto& bt : triplets) t.push_back(&bt);
  // Stable, so duplicate blocks sum in emission order — callers (FE
  // assembly) rely on that for thread-count-independent rounding.
  std::stable_sort(t.begin(), t.end(),
                   [](const BlockTriplet<BS>* a, const BlockTriplet<BS>* b) {
                     return a->brow != b->brow ? a->brow < b->brow
                                               : a->bcol < b->bcol;
                   });
  Bsr m;
  m.nbrows = nbrows;
  m.nbcols = nbcols;
  m.browptr.assign(static_cast<std::size_t>(nbrows) + 1, 0);
  for (std::size_t i = 0; i < t.size();) {
    const idx brow = t[i]->brow, bcol = t[i]->bcol;
    PROM_CHECK(brow >= 0 && brow < nbrows && bcol >= 0 && bcol < nbcols);
    std::array<real, kBlockSize> sum{};
    while (i < t.size() && t[i]->brow == brow && t[i]->bcol == bcol) {
      for (int e = 0; e < kBlockSize; ++e) sum[e] += t[i]->v[e];
      ++i;
    }
    m.bcolidx.push_back(bcol);
    m.vals.insert(m.vals.end(), sum.begin(), sum.end());
    m.browptr[brow + 1] = static_cast<nnz_t>(m.bcolidx.size());
  }
  for (idx r = 0; r < nbrows; ++r) {
    m.browptr[r + 1] = std::max(m.browptr[r + 1], m.browptr[r]);
  }
  return m;
}

template <int BS>
Bsr<BS> spgemm(const Bsr<BS>& a, const Bsr<BS>& b) {
  PROM_CHECK(a.nbcols == b.nbrows);
  constexpr int kBlockSize = BS * BS;
  Bsr<BS> c;
  c.nbrows = a.nbrows;
  c.nbcols = b.nbcols;
  c.browptr.assign(static_cast<std::size_t>(a.nbrows) + 1, 0);

  // Block-row-parallel Gustavson, mirroring la/csr.cpp's scalar spgemm:
  // fixed chunks of block rows accumulate into private dense-block
  // buffers (each row's accumulation order matches the serial algorithm,
  // so results are bit-identical for any thread count), then the chunk
  // outputs are concatenated in chunk order.
  struct ChunkOut {
    std::vector<idx> bcols;
    std::vector<real> vals;
    std::vector<nnz_t> row_nblocks;
    std::int64_t flops = 0;
  };
  const idx nchunks = common::chunk_count(0, a.nbrows, kBlockSpgemmGrain);
  std::vector<ChunkOut> outs(static_cast<std::size_t>(nchunks));
  common::parallel_for(0, a.nbrows, kBlockSpgemmGrain, [&](idx rb, idx re) {
    ChunkOut& out = outs[rb / kBlockSpgemmGrain];
    out.row_nblocks.reserve(static_cast<std::size_t>(re - rb));
    std::vector<real> acc(static_cast<std::size_t>(b.nbcols) * kBlockSize,
                          real{0});
    std::vector<idx> marker(static_cast<std::size_t>(b.nbcols), kInvalidIdx);
    std::vector<idx> bcols_in_row;
    for (idx i = rb; i < re; ++i) {
      bcols_in_row.clear();
      for (nnz_t ka = a.browptr[i]; ka < a.browptr[i + 1]; ++ka) {
        const idx j = a.bcolidx[ka];
        const real* ab =
            a.vals.data() + static_cast<std::size_t>(ka) * kBlockSize;
        for (nnz_t kb = b.browptr[j]; kb < b.browptr[j + 1]; ++kb) {
          const idx col = b.bcolidx[kb];
          real* cb = acc.data() + static_cast<std::size_t>(col) * kBlockSize;
          if (marker[col] != i) {
            marker[col] = i;
            std::fill_n(cb, kBlockSize, real{0});
            bcols_in_row.push_back(col);
          }
          const real* bb =
              b.vals.data() + static_cast<std::size_t>(kb) * kBlockSize;
          for (int r = 0; r < BS; ++r) {
            for (int cc = 0; cc < BS; ++cc) {
              real sum = cb[r * BS + cc];
              for (int q = 0; q < BS; ++q) {
                sum += ab[r * BS + q] * bb[q * BS + cc];
              }
              cb[r * BS + cc] = sum;
            }
          }
          out.flops += 2 * BS * kBlockSize;
        }
      }
      std::sort(bcols_in_row.begin(), bcols_in_row.end());
      for (idx col : bcols_in_row) {
        out.bcols.push_back(col);
        const real* cb = acc.data() + static_cast<std::size_t>(col) * kBlockSize;
        out.vals.insert(out.vals.end(), cb, cb + kBlockSize);
      }
      out.row_nblocks.push_back(static_cast<nnz_t>(bcols_in_row.size()));
    }
  });

  std::int64_t flops = 0;
  std::vector<nnz_t> chunk_offset(static_cast<std::size_t>(nchunks) + 1, 0);
  for (idx ch = 0; ch < nchunks; ++ch) {
    const ChunkOut& out = outs[ch];
    flops += out.flops;
    chunk_offset[ch + 1] =
        chunk_offset[ch] + static_cast<nnz_t>(out.bcols.size());
    for (std::size_t r = 0; r < out.row_nblocks.size(); ++r) {
      const idx i = ch * kBlockSpgemmGrain + static_cast<idx>(r);
      c.browptr[i + 1] = c.browptr[i] + out.row_nblocks[r];
    }
  }
  c.bcolidx.resize(static_cast<std::size_t>(chunk_offset[nchunks]));
  c.vals.resize(c.bcolidx.size() * kBlockSize);
  common::parallel_for(0, nchunks, 1, [&](idx cb, idx ce) {
    for (idx ch = cb; ch < ce; ++ch) {
      std::copy(outs[ch].bcols.begin(), outs[ch].bcols.end(),
                c.bcolidx.begin() + chunk_offset[ch]);
      std::copy(outs[ch].vals.begin(), outs[ch].vals.end(),
                c.vals.begin() +
                    static_cast<std::size_t>(chunk_offset[ch]) * kBlockSize);
    }
  });
  count_flops(flops);
  return c;
}

template <int BS>
Bsr<BS> galerkin_product(const Bsr<BS>& r, const Bsr<BS>& a) {
  PROM_CHECK(r.nbcols == a.nbrows && a.nbrows == a.nbcols);
  const Bsr<BS> rt = r.transposed();
  const Bsr<BS> art = spgemm(a, rt);
  return spgemm(r, art);
}

template struct Bsr<3>;
template Bsr<3> spgemm<3>(const Bsr<3>&, const Bsr<3>&);
template Bsr<3> galerkin_product<3>(const Bsr<3>&, const Bsr<3>&);

namespace {
constexpr idx kMapGrain = 8192;  // elementwise gather/scatter chunks
}

void NodeBlockMap::gather(std::span<const real> free_vec,
                          std::span<real> slots) const {
  PROM_CHECK(static_cast<idx>(free_vec.size()) == nfree &&
             static_cast<idx>(slots.size()) == nslots());
  common::parallel_for(0, nslots(), kMapGrain, [&](idx sb, idx se) {
    for (idx s = sb; s < se; ++s) {
      const idx f = free_of_slot[s];
      slots[s] = f == kInvalidIdx ? real{0} : free_vec[f];
    }
  });
}

void NodeBlockMap::scatter(std::span<const real> slots,
                           std::span<real> free_vec) const {
  PROM_CHECK(static_cast<idx>(free_vec.size()) == nfree &&
             static_cast<idx>(slots.size()) == nslots());
  common::parallel_for(0, nfree, kMapGrain, [&](idx fb, idx fe) {
    for (idx f = fb; f < fe; ++f) free_vec[f] = slots[slot_of_free[f]];
  });
}

NodeBlockMap node_block_map(std::span<const idx> free_dofs) {
  NodeBlockMap m;
  m.nfree = static_cast<idx>(free_dofs.size());
  m.slot_of_free.resize(free_dofs.size());
  idx prev_vertex = kInvalidIdx;
  for (std::size_t i = 0; i < free_dofs.size(); ++i) {
    const idx v = free_dofs[i] / kDofPerVertex;
    const idx c = free_dofs[i] % kDofPerVertex;
    PROM_CHECK_MSG(v >= prev_vertex, "free_dofs must be ascending");
    if (v != prev_vertex) {
      m.vertex_of_node.push_back(v);
      prev_vertex = v;
    }
    const idx node = static_cast<idx>(m.vertex_of_node.size()) - 1;
    m.slot_of_free[i] = kDofPerVertex * node + c;
  }
  m.nnodes = static_cast<idx>(m.vertex_of_node.size());
  m.free_of_slot.assign(static_cast<std::size_t>(m.nslots()), kInvalidIdx);
  for (idx f = 0; f < m.nfree; ++f) m.free_of_slot[m.slot_of_free[f]] = f;
  return m;
}

Bsr3 bsr_from_free_csr(const Csr& a, const NodeBlockMap& map) {
  PROM_CHECK(a.nrows == map.nfree && a.ncols == map.nfree);
  constexpr int BS = kDofPerVertex;
  constexpr int kBlockSize = BS * BS;
  Bsr3 m;
  m.nbrows = map.nnodes;
  m.nbcols = map.nnodes;
  m.browptr.assign(static_cast<std::size_t>(map.nnodes) + 1, 0);
  // slot_of_free is strictly increasing, so a free row's sorted columns
  // map to nondecreasing block columns; the per-block-row union is built
  // with a marker and sorted (small rows). The diagonal block is always
  // inserted so padded components get their identity pivot.
  std::vector<idx> marker(static_cast<std::size_t>(map.nnodes), kInvalidIdx);
  std::vector<std::vector<idx>> row_bcols(
      static_cast<std::size_t>(map.nnodes));
  for (idx bi = 0; bi < map.nnodes; ++bi) {
    auto& bcols = row_bcols[bi];
    marker[bi] = bi;
    bcols.push_back(bi);
    for (int r = 0; r < BS; ++r) {
      const idx i = map.free_of_slot[static_cast<std::size_t>(bi) * BS + r];
      if (i == kInvalidIdx) continue;
      for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
        const idx bj = map.slot_of_free[a.colidx[k]] / BS;
        if (marker[bj] != bi) {
          marker[bj] = bi;
          bcols.push_back(bj);
        }
      }
    }
    std::sort(bcols.begin(), bcols.end());
    m.browptr[bi + 1] = m.browptr[bi] + static_cast<nnz_t>(bcols.size());
  }
  m.bcolidx.resize(static_cast<std::size_t>(m.browptr[map.nnodes]));
  m.vals.assign(m.bcolidx.size() * kBlockSize, real{0});
  for (idx bi = 0; bi < map.nnodes; ++bi) {
    const nnz_t base = m.browptr[bi];
    const auto& bcols = row_bcols[bi];
    std::copy(bcols.begin(), bcols.end(), m.bcolidx.begin() + base);
    for (int r = 0; r < BS; ++r) {
      const idx slot = static_cast<idx>(bi) * BS + r;
      const idx i = map.free_of_slot[slot];
      if (i == kInvalidIdx) {
        // Padding row: a 1 on the padded diagonal slot keeps the diagonal
        // block invertible; the padded x entry is always 0, so SpMV on the
        // free sub-operator is unaffected.
        const auto it = std::lower_bound(bcols.begin(), bcols.end(), bi);
        const nnz_t pos = base + static_cast<nnz_t>(it - bcols.begin());
        m.vals[static_cast<std::size_t>(pos) * kBlockSize + r * BS + r] = 1;
        continue;
      }
      for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
        const idx cslot = map.slot_of_free[a.colidx[k]];
        const auto it = std::lower_bound(bcols.begin(), bcols.end(),
                                         cslot / BS);
        const nnz_t pos = base + static_cast<nnz_t>(it - bcols.begin());
        m.vals[static_cast<std::size_t>(pos) * kBlockSize + r * BS +
               cslot % BS] = a.vals[k];
      }
    }
  }
  return m;
}

BsrOperator::BsrOperator(Bsr3 a, NodeBlockMap map)
    : a_(std::move(a)), map_(std::move(map)) {
  PROM_CHECK(a_.nbrows == map_.nnodes && a_.nbcols == map_.nnodes);
}

void BsrOperator::apply(BlockCRef x, BlockRef y) const {
  const idx ns = map_.nslots();
  const int ncol = x.cols();
  MultiVec xs(ns, ncol), ys(ns, ncol);
  for (int j = 0; j < ncol; ++j) map_.gather(x.col(j), xs.col(j));
  a_.spmv(xs, ys);
  for (int j = 0; j < ncol; ++j) map_.scatter(ys.col(j), y.col(j));
}

void BsrOperator::residual(BlockCRef b, BlockCRef x, BlockRef r) const {
  const idx ns = map_.nslots();
  const int ncol = x.cols();
  MultiVec xs(ns, ncol), bs(ns, ncol), rs(ns, ncol);
  for (int j = 0; j < ncol; ++j) {
    map_.gather(x.col(j), xs.col(j));
    map_.gather(b.col(j), bs.col(j));
  }
  a_.residual(bs, xs, rs);
  for (int j = 0; j < ncol; ++j) map_.scatter(rs.col(j), r.col(j));
}

}  // namespace prom::la
