#include "la/csr.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/flops.h"
#include "common/parallel.h"

namespace prom::la {
namespace {

/// Rows per parallel chunk for row-partitioned kernels. Fixed constants:
/// the chunk decomposition is part of the bit-determinism contract (see
/// common/parallel.h), so it may depend on the matrix but never on the
/// thread count.
constexpr idx kRowGrain = 256;
constexpr idx kSpgemmGrain = 1024;
constexpr idx kMergeGrain = 8192;

/// Transpose-SpMV scatter chunks. Each chunk owns a private accumulator of
/// `ncols` reals, so the count is capped to bound memory (8 x ncols reals).
idx transpose_grain(idx nrows) {
  return std::max<idx>(2048, (nrows + 7) / 8);
}

/// Columns j0 .. j0+K-1 of the row core over entries [tb, te) of the row
/// list. K is a compile-time width and the width loops are fully unrolled
/// (GCC does not do so on its own at -O2 for K = 4 or 8), so the K
/// accumulators live in registers. Each column starts from 0 and adds its
/// terms in the row's sorted-column order, exactly as a single-vector
/// loop would, so its bits do not depend on K or on which chunk it lands
/// in.
template <int K, class Emit>
void rows_fixed(const Csr& a, const real* const* xp, int j0,
                std::span<const idx> rows, idx tb, idx te, const Emit& emit) {
  for (idx t = tb; t < te; ++t) {
    const idx i = rows.empty() ? t : rows[t];
    real acc[K];
#pragma GCC unroll 8
    for (int j = 0; j < K; ++j) acc[j] = 0;
    for (nnz_t kk = a.rowptr[i]; kk < a.rowptr[i + 1]; ++kk) {
      const real v = a.vals[kk];
      const idx c = a.colidx[kk];
#pragma GCC unroll 8
      for (int j = 0; j < K; ++j) acc[j] += v * xp[j0 + j][c];
    }
#pragma GCC unroll 8
    for (int j = 0; j < K; ++j) emit(i, j0 + j, acc[j]);
  }
}

/// The one CSR row kernel behind every product and residual, single- and
/// multi-vector: `xp` holds the k input columns and `emit(i, j, sum)`
/// stores row i's result for column j. Each chunk of rows runs the
/// fixed-width instances for_width_chunks picks. An empty `rows` means
/// "all rows in order"; a non-empty list restricts the kernel to those
/// rows (callers of the *_rows API return early on an empty list).
template <class Emit>
void rows_core(const Csr& a, std::span<const real* const> xp,
               std::span<const idx> rows, const Emit& emit) {
  const int k = static_cast<int>(xp.size());
  const idx n = rows.empty() ? a.nrows : static_cast<idx>(rows.size());
  common::parallel_for(0, n, kRowGrain, [&](idx tb, idx te) {
    for_width_chunks(k, [&](auto width, int j0) {
      rows_fixed<decltype(width)::value>(a, xp.data(), j0, rows, tb, te,
                                         emit);
    });
    nnz_t sub = 0;
    if (rows.empty()) {
      sub = a.rowptr[te] - a.rowptr[tb];
    } else {
      for (idx t = tb; t < te; ++t) {
        sub += a.rowptr[rows[t] + 1] - a.rowptr[rows[t]];
      }
    }
    count_flops(2 * sub * k);
  });
}

void check_shapes(const Csr& a, std::span<const real> x,
                  std::span<const real> y) {
  PROM_CHECK(static_cast<idx>(x.size()) == a.ncols &&
             static_cast<idx>(y.size()) == a.nrows);
}

void check_mv_shapes(const Csr& a, const MultiVec& x, const MultiVec& y) {
  PROM_CHECK(x.rows() == a.ncols && y.rows() == a.nrows &&
             x.cols() == y.cols() && x.cols() >= 1);
}

/// Column pointers of a MultiVec (const or not), in the form rows_core
/// and the emits take them.
template <class V>
auto col_ptrs(V& v) {
  std::array<decltype(v.col_data(0)), kMaxRhsBlock> p{};
  for (int j = 0; j < v.cols(); ++j) p[j] = v.col_data(j);
  return p;
}

}  // namespace

void Csr::spmv(std::span<const real> x, std::span<real> y) const {
  check_shapes(*this, x, y);
  const real* xp = x.data();
  rows_core(*this, {&xp, 1}, {}, [&](idx i, int, real sum) { y[i] = sum; });
}

void Csr::spmv_add(std::span<const real> x, std::span<real> y) const {
  check_shapes(*this, x, y);
  const real* xp = x.data();
  rows_core(*this, {&xp, 1}, {}, [&](idx i, int, real sum) { y[i] += sum; });
}

void Csr::spmv_transpose(std::span<const real> x, std::span<real> y) const {
  PROM_CHECK(static_cast<idx>(x.size()) == nrows &&
             static_cast<idx>(y.size()) == ncols);
  const idx grain = transpose_grain(nrows);
  const idx nchunks = common::chunk_count(0, nrows, grain);
  if (nchunks <= 1) {
    std::fill(y.begin(), y.end(), real{0});
    for (idx i = 0; i < nrows; ++i) {
      const real xi = x[i];
      for (nnz_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
        y[colidx[k]] += vals[k] * xi;
      }
    }
    count_flops(2 * nnz());
    return;
  }
  // Scatter into per-chunk accumulators (disjoint by construction), then
  // merge them column-parallel in fixed chunk order — the merge order is a
  // function of the decomposition, so any thread count produces the same
  // bits.
  std::vector<real> partial(static_cast<std::size_t>(nchunks) * ncols,
                            real{0});
  common::parallel_for(0, nrows, grain, [&](idx rb, idx re) {
    real* acc = partial.data() + static_cast<std::size_t>(rb / grain) * ncols;
    for (idx i = rb; i < re; ++i) {
      const real xi = x[i];
      for (nnz_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
        acc[colidx[k]] += vals[k] * xi;
      }
    }
  });
  common::parallel_for(0, ncols, kMergeGrain, [&](idx jb, idx je) {
    for (idx j = jb; j < je; ++j) {
      real sum = 0;
      for (idx c = 0; c < nchunks; ++c) {
        sum += partial[static_cast<std::size_t>(c) * ncols + j];
      }
      y[j] = sum;
    }
  });
  count_flops(2 * nnz());
}

void Csr::residual(std::span<const real> b, std::span<const real> x,
                   std::span<real> r) const {
  check_shapes(*this, x, r);
  PROM_CHECK(static_cast<idx>(b.size()) == nrows);
  const real* xp = x.data();
  rows_core(*this, {&xp, 1}, {},
            [&](idx i, int, real sum) { r[i] = b[i] - sum; });
  count_flops(nrows);
}

void Csr::spmv_rows(std::span<const real> x, std::span<real> y,
                    std::span<const idx> rows) const {
  check_shapes(*this, x, y);
  if (rows.empty()) return;
  const real* xp = x.data();
  rows_core(*this, {&xp, 1}, rows, [&](idx i, int, real sum) { y[i] = sum; });
}

void Csr::residual_rows(std::span<const real> b, std::span<const real> x,
                        std::span<real> r, std::span<const idx> rows) const {
  check_shapes(*this, x, r);
  PROM_CHECK(static_cast<idx>(b.size()) == nrows);
  if (rows.empty()) return;
  const real* xp = x.data();
  rows_core(*this, {&xp, 1}, rows,
            [&](idx i, int, real sum) { r[i] = b[i] - sum; });
  count_flops(static_cast<std::int64_t>(rows.size()));
}

void Csr::spmm(const MultiVec& x, MultiVec& y) const {
  check_mv_shapes(*this, x, y);
  const auto xp = col_ptrs(x);
  const auto yp = col_ptrs(y);
  rows_core(*this, {xp.data(), static_cast<std::size_t>(x.cols())}, {},
            [&](idx i, int j, real sum) { yp[j][i] = sum; });
}

void Csr::residual_mv(const MultiVec& b, const MultiVec& x,
                      MultiVec& r) const {
  check_mv_shapes(*this, x, r);
  PROM_CHECK(b.rows() == nrows && b.cols() == x.cols());
  const auto xp = col_ptrs(x);
  const auto bp = col_ptrs(b);
  const auto rp = col_ptrs(r);
  rows_core(*this, {xp.data(), static_cast<std::size_t>(x.cols())}, {},
            [&](idx i, int j, real sum) { rp[j][i] = bp[j][i] - sum; });
  count_flops(static_cast<std::int64_t>(nrows) * x.cols());
}

void Csr::spmm_rows(const MultiVec& x, MultiVec& y,
                    std::span<const idx> rows) const {
  check_mv_shapes(*this, x, y);
  if (rows.empty()) return;
  const auto xp = col_ptrs(x);
  const auto yp = col_ptrs(y);
  rows_core(*this, {xp.data(), static_cast<std::size_t>(x.cols())}, rows,
            [&](idx i, int j, real sum) { yp[j][i] = sum; });
}

void Csr::residual_mv_rows(const MultiVec& b, const MultiVec& x, MultiVec& r,
                           std::span<const idx> rows) const {
  check_mv_shapes(*this, x, r);
  PROM_CHECK(b.rows() == nrows && b.cols() == x.cols());
  if (rows.empty()) return;
  const auto xp = col_ptrs(x);
  const auto bp = col_ptrs(b);
  const auto rp = col_ptrs(r);
  rows_core(*this, {xp.data(), static_cast<std::size_t>(x.cols())}, rows,
            [&](idx i, int j, real sum) { rp[j][i] = bp[j][i] - sum; });
  count_flops(static_cast<std::int64_t>(rows.size()) * x.cols());
}

std::vector<real> Csr::apply(std::span<const real> x) const {
  std::vector<real> y(static_cast<std::size_t>(nrows));
  spmv(x, y);
  return y;
}

real Csr::at(idx i, idx j) const {
  PROM_CHECK(i >= 0 && i < nrows && j >= 0 && j < ncols);
  const auto begin = colidx.begin() + rowptr[i];
  const auto end = colidx.begin() + rowptr[i + 1];
  const auto it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return 0;
  return vals[it - colidx.begin()];
}

Csr Csr::transposed() const {
  Csr t;
  t.nrows = ncols;
  t.ncols = nrows;
  t.rowptr.assign(static_cast<std::size_t>(ncols) + 1, 0);
  for (idx j : colidx) t.rowptr[j + 1]++;
  for (idx j = 0; j < ncols; ++j) t.rowptr[j + 1] += t.rowptr[j];
  t.colidx.resize(colidx.size());
  t.vals.resize(vals.size());
  std::vector<nnz_t> next(t.rowptr.begin(), t.rowptr.end() - 1);
  for (idx i = 0; i < nrows; ++i) {
    for (nnz_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      const nnz_t pos = next[colidx[k]]++;
      t.colidx[pos] = i;
      t.vals[pos] = vals[k];
    }
  }
  return t;  // columns are sorted because rows were traversed in order
}

std::vector<real> Csr::diagonal() const {
  std::vector<real> d(static_cast<std::size_t>(nrows), real{0});
  for (idx i = 0; i < nrows && i < ncols; ++i) d[i] = at(i, i);
  return d;
}

real Csr::symmetry_error() const {
  if (nrows != ncols) return std::numeric_limits<real>::infinity();
  real err = 0;
  for (idx i = 0; i < nrows; ++i) {
    for (nnz_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      err = std::max(err, std::fabs(vals[k] - at(colidx[k], i)));
    }
  }
  return err;
}

Csr Csr::from_triplets(idx nrows, idx ncols,
                       std::span<const Triplet> triplets) {
  std::vector<Triplet> t(triplets.begin(), triplets.end());
  std::sort(t.begin(), t.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  Csr m;
  m.nrows = nrows;
  m.ncols = ncols;
  m.rowptr.assign(static_cast<std::size_t>(nrows) + 1, 0);
  m.colidx.reserve(t.size());
  m.vals.reserve(t.size());
  for (std::size_t i = 0; i < t.size();) {
    PROM_CHECK(t[i].row >= 0 && t[i].row < nrows && t[i].col >= 0 &&
               t[i].col < ncols);
    real sum = 0;
    const idx row = t[i].row, col = t[i].col;
    while (i < t.size() && t[i].row == row && t[i].col == col) {
      sum += t[i].value;
      ++i;
    }
    m.colidx.push_back(col);
    m.vals.push_back(sum);
    m.rowptr[row + 1] = static_cast<nnz_t>(m.colidx.size());
  }
  for (idx r = 0; r < nrows; ++r) {
    m.rowptr[r + 1] = std::max(m.rowptr[r + 1], m.rowptr[r]);
  }
  return m;
}

Csr Csr::identity(idx n) {
  Csr m;
  m.nrows = m.ncols = n;
  m.rowptr.resize(static_cast<std::size_t>(n) + 1);
  m.colidx.resize(static_cast<std::size_t>(n));
  m.vals.assign(static_cast<std::size_t>(n), real{1});
  for (idx i = 0; i <= n; ++i) m.rowptr[i] = i;
  for (idx i = 0; i < n; ++i) m.colidx[i] = i;
  return m;
}

std::vector<real> Csr::to_dense_rowmajor() const {
  std::vector<real> d(static_cast<std::size_t>(nrows) * ncols, real{0});
  for (idx i = 0; i < nrows; ++i) {
    for (nnz_t k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      d[static_cast<std::size_t>(i) * ncols + colidx[k]] = vals[k];
    }
  }
  return d;
}

Csr spgemm(const Csr& a, const Csr& b) {
  PROM_CHECK(a.ncols == b.nrows);
  Csr c;
  c.nrows = a.nrows;
  c.ncols = b.ncols;
  c.rowptr.assign(static_cast<std::size_t>(a.nrows) + 1, 0);

  // Row-parallel Gustavson: each fixed chunk of rows runs the classic
  // serial algorithm into private buffers (every row's accumulation order
  // is identical to the serial code, so results are bit-identical for any
  // thread count), then the chunk outputs are concatenated in chunk order.
  struct ChunkOut {
    std::vector<idx> cols;
    std::vector<real> vals;
    std::vector<nnz_t> row_nnz;
    std::int64_t flops = 0;
  };
  const idx nchunks = common::chunk_count(0, a.nrows, kSpgemmGrain);
  std::vector<ChunkOut> outs(static_cast<std::size_t>(nchunks));
  common::parallel_for(0, a.nrows, kSpgemmGrain, [&](idx rb, idx re) {
    ChunkOut& out = outs[rb / kSpgemmGrain];
    out.row_nnz.reserve(static_cast<std::size_t>(re - rb));
    // Gustavson: a dense accumulator over the columns of C per row of A.
    // Rows stamp the marker with their (globally unique) index, so one
    // allocation serves the whole chunk.
    std::vector<real> acc(static_cast<std::size_t>(b.ncols), real{0});
    std::vector<idx> marker(static_cast<std::size_t>(b.ncols), kInvalidIdx);
    std::vector<idx> cols_in_row;
    for (idx i = rb; i < re; ++i) {
      cols_in_row.clear();
      for (nnz_t ka = a.rowptr[i]; ka < a.rowptr[i + 1]; ++ka) {
        const idx j = a.colidx[ka];
        const real av = a.vals[ka];
        for (nnz_t kb = b.rowptr[j]; kb < b.rowptr[j + 1]; ++kb) {
          const idx col = b.colidx[kb];
          if (marker[col] != i) {
            marker[col] = i;
            acc[col] = 0;
            cols_in_row.push_back(col);
          }
          acc[col] += av * b.vals[kb];
          out.flops += 2;
        }
      }
      std::sort(cols_in_row.begin(), cols_in_row.end());
      for (idx col : cols_in_row) {
        out.cols.push_back(col);
        out.vals.push_back(acc[col]);
      }
      out.row_nnz.push_back(static_cast<nnz_t>(cols_in_row.size()));
    }
  });

  std::int64_t flops = 0;
  std::vector<nnz_t> chunk_offset(static_cast<std::size_t>(nchunks) + 1, 0);
  for (idx ch = 0; ch < nchunks; ++ch) {
    const ChunkOut& out = outs[ch];
    flops += out.flops;
    chunk_offset[ch + 1] = chunk_offset[ch] +
                           static_cast<nnz_t>(out.cols.size());
    for (std::size_t r = 0; r < out.row_nnz.size(); ++r) {
      const idx i = ch * kSpgemmGrain + static_cast<idx>(r);
      c.rowptr[i + 1] = c.rowptr[i] + out.row_nnz[r];
    }
  }
  c.colidx.resize(static_cast<std::size_t>(chunk_offset[nchunks]));
  c.vals.resize(static_cast<std::size_t>(chunk_offset[nchunks]));
  common::parallel_for(0, nchunks, 1, [&](idx cb, idx ce) {
    for (idx ch = cb; ch < ce; ++ch) {
      std::copy(outs[ch].cols.begin(), outs[ch].cols.end(),
                c.colidx.begin() + chunk_offset[ch]);
      std::copy(outs[ch].vals.begin(), outs[ch].vals.end(),
                c.vals.begin() + chunk_offset[ch]);
    }
  });
  count_flops(flops);
  return c;
}

Csr galerkin_product(const Csr& r, const Csr& a) {
  PROM_CHECK(r.ncols == a.nrows && a.nrows == a.ncols);
  const Csr rt = r.transposed();
  const Csr art = spgemm(a, rt);
  return spgemm(r, art);
}

Csr drop_small(const Csr& a, real tol) {
  Csr m;
  m.nrows = a.nrows;
  m.ncols = a.ncols;
  m.rowptr.assign(static_cast<std::size_t>(a.nrows) + 1, 0);
  for (idx i = 0; i < a.nrows; ++i) {
    for (nnz_t k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      if (std::fabs(a.vals[k]) > tol || a.colidx[k] == i) {
        m.colidx.push_back(a.colidx[k]);
        m.vals.push_back(a.vals[k]);
      }
    }
    m.rowptr[i + 1] = static_cast<nnz_t>(m.colidx.size());
  }
  return m;
}

}  // namespace prom::la
