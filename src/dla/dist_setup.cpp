#include "dla/dist_setup.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/flops.h"
#include "obs/trace.h"

namespace prom::dla {
namespace {

/// Ghost-row replies: one fused message per peer (counts + cols + vals).
constexpr int kTagGhostRows = 321;

/// This rank's rows of `a` with column indices mapped back to global ids
/// (storage order — ascending global column — preserved).
la::Csr local_rows_global_cols(const DistCsr& a) {
  la::Csr out = a.local_matrix();
  out.ncols = a.col_dist().global_size();
  for (auto& c : out.colidx) c = a.global_col(c);
  return out;
}

template <typename T>
void append_bytes(std::vector<std::byte>& msg, const std::vector<T>& v) {
  const auto raw = std::as_bytes(std::span<const T>(v));
  msg.insert(msg.end(), raw.begin(), raw.end());
}

template <typename T>
std::vector<T> take_bytes(const std::vector<std::byte>& msg, std::size_t& off,
                          std::size_t count) {
  std::vector<T> out(count);
  PROM_CHECK(off + count * sizeof(T) <= msg.size());
  if (count > 0) std::memcpy(out.data(), msg.data() + off, count * sizeof(T));
  off += count * sizeof(T);
  return out;
}

/// One peer's ghost rows: per requested row its length, then all column
/// ids and values concatenated in request order.
struct GhostRowReply {
  std::vector<nnz_t> counts;
  std::vector<idx> cols;
  std::vector<real> vals;
};

}  // namespace

DistCsr dist_spgemm(parx::Comm& comm, const DistCsr& a, const DistCsr& b,
                    std::span<const idx> a_col_serial) {
  const obs::Span span("setup.spgemm");
  PROM_CHECK(a.col_dist().offsets == b.row_dist().offsets);
  PROM_CHECK(a_col_serial.empty() ||
             static_cast<idx>(a_col_serial.size()) ==
                 a.col_dist().global_size());
  const int p = comm.size();
  const int rank = comm.rank();
  const RowDist& bd = b.row_dist();

  // Fetch the ghost rows of B: the rows matching A's ghost columns, from
  // their owners. Requests per owner are ascending (ghost_cols() is
  // sorted), so the reply streams can be consumed in the same order.
  std::vector<std::vector<idx>> want(p);
  for (idx g : a.ghost_cols()) want[bd.owner(g)].push_back(g);
  const auto asked = comm.alltoallv(want);

  // Each owner replies with one fused message per requester — the row
  // lengths, column ids and values of the requested rows back to back —
  // instead of three separate collectives. Replies are drained in arrival
  // order (slow peers never stall parsed ones); the assembly loop below
  // walks the ghost list in fixed order, so the result is deterministic.
  const la::Csr b_rows = local_rows_global_cols(b);
  const idx b0 = bd.begin(rank);
  {
    std::vector<nnz_t> counts;
    std::vector<idx> cols;
    std::vector<real> vals;
    for (int r = 0; r < p; ++r) {
      if (r == rank || asked[r].empty()) continue;
      counts.clear();
      cols.clear();
      vals.clear();
      for (idx grow : asked[r]) {
        PROM_CHECK(bd.owner(grow) == rank);
        const idx lr = grow - b0;
        counts.push_back(b_rows.rowptr[lr + 1] - b_rows.rowptr[lr]);
        for (nnz_t k = b_rows.rowptr[lr]; k < b_rows.rowptr[lr + 1]; ++k) {
          cols.push_back(b_rows.colidx[k]);
          vals.push_back(b_rows.vals[k]);
        }
      }
      std::vector<std::byte> msg;
      msg.reserve(counts.size() * sizeof(nnz_t) + cols.size() * sizeof(idx) +
                  vals.size() * sizeof(real));
      append_bytes(msg, counts);
      append_bytes(msg, cols);
      append_bytes(msg, vals);
      comm.send_bytes(r, kTagGhostRows, msg);
    }
  }
  std::vector<GhostRowReply> replies(p);
  {
    std::vector<int> pending;
    for (int r = 0; r < p; ++r) {
      if (r != rank && !want[r].empty()) pending.push_back(r);
    }
    while (!pending.empty()) {
      const int src = comm.wait_any(pending, kTagGhostRows);
      const std::vector<std::byte> msg = comm.recv_bytes(src, kTagGhostRows);
      std::size_t off = 0;
      GhostRowReply& rep = replies[src];
      rep.counts = take_bytes<nnz_t>(msg, off, want[src].size());
      nnz_t total = 0;
      for (nnz_t nz : rep.counts) total += nz;
      rep.cols = take_bytes<idx>(msg, off, static_cast<std::size_t>(total));
      rep.vals = take_bytes<real>(msg, off, static_cast<std::size_t>(total));
      PROM_CHECK(off == msg.size());
      pending.erase(std::find(pending.begin(), pending.end(), src));
    }
  }
  // Self-requests never happen: every ghost column is owned elsewhere.
  PROM_CHECK(want[rank].empty());

  // Ghost-row table aligned with A's ghost slots (global columns).
  la::Csr ghost_rows;
  ghost_rows.nrows = a.num_ghosts();
  ghost_rows.ncols = b.col_dist().global_size();
  ghost_rows.rowptr.assign(static_cast<std::size_t>(ghost_rows.nrows) + 1, 0);
  std::vector<std::size_t> ccur(p, 0), ecur(p, 0);
  for (std::size_t g = 0; g < a.ghost_cols().size(); ++g) {
    const int o = bd.owner(a.ghost_cols()[g]);
    const GhostRowReply& rep = replies[o];
    const nnz_t nz = rep.counts[ccur[o]++];
    for (nnz_t t = 0; t < nz; ++t) {
      ghost_rows.colidx.push_back(rep.cols[ecur[o]]);
      ghost_rows.vals.push_back(rep.vals[ecur[o]]);
      ++ecur[o];
    }
    ghost_rows.rowptr[g + 1] = static_cast<nnz_t>(ghost_rows.colidx.size());
  }

  // Local Gustavson over the owned rows. An output entry accumulates one
  // term `+= av * bv` per A-column, from a zero seed, so its value depends
  // only on the order the A-row entries are visited; visiting them in
  // ascending *serial* column order (a_col_serial, when given) reproduces
  // la::spgemm on the unpermuted matrices bit for bit.
  const la::Csr& al = a.local_matrix();
  const idx a_n_own = a.col_dist().local_size(rank);
  la::Csr c;
  c.nrows = al.nrows;
  c.ncols = b.col_dist().global_size();
  c.rowptr.assign(static_cast<std::size_t>(c.nrows) + 1, 0);
  std::int64_t flops = 0;
  std::unordered_map<idx, real> acc;
  std::vector<idx> cols_in_row;
  std::vector<std::pair<idx, nnz_t>> order;  // (term key, position in row)
  for (idx i = 0; i < al.nrows; ++i) {
    acc.clear();
    cols_in_row.clear();
    order.clear();
    for (nnz_t ka = al.rowptr[i]; ka < al.rowptr[i + 1]; ++ka) {
      const idx gc = a.global_col(al.colidx[ka]);
      order.emplace_back(a_col_serial.empty() ? gc : a_col_serial[gc], ka);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [key, ka] : order) {
      const idx lc = al.colidx[ka];
      const real av = al.vals[ka];
      const la::Csr& src = lc < a_n_own ? b_rows : ghost_rows;
      const idx row = lc < a_n_own ? lc : lc - a_n_own;
      for (nnz_t kb = src.rowptr[row]; kb < src.rowptr[row + 1]; ++kb) {
        const idx col = src.colidx[kb];
        const auto [it, inserted] = acc.try_emplace(col, real{0});
        if (inserted) cols_in_row.push_back(col);
        it->second += av * src.vals[kb];
        flops += 2;
      }
    }
    std::sort(cols_in_row.begin(), cols_in_row.end());
    for (idx col : cols_in_row) {
      c.colidx.push_back(col);
      c.vals.push_back(acc.at(col));
    }
    c.rowptr[i + 1] = static_cast<nnz_t>(c.colidx.size());
  }
  count_flops(flops);

  return DistCsr::from_local_rows(comm, c, a.row_dist(), b.col_dist());
}

DistCsr dist_transpose(parx::Comm& comm, const DistCsr& r) {
  const obs::Span span("setup.transpose");
  const int p = comm.size();
  const int rank = comm.rank();
  const RowDist& out_rows = r.col_dist();  // rows of R^T
  const RowDist& out_cols = r.row_dist();  // cols of R^T

  // Ship each local entry (i, j, v) to the owner of output row j.
  const la::Csr rl = local_rows_global_cols(r);
  const idx r0 = r.row_dist().begin(rank);
  std::vector<std::vector<idx>> trows(p), tcols(p);
  std::vector<std::vector<real>> tvals(p);
  for (idx i = 0; i < rl.nrows; ++i) {
    for (nnz_t k = rl.rowptr[i]; k < rl.rowptr[i + 1]; ++k) {
      const int o = out_rows.owner(rl.colidx[k]);
      trows[o].push_back(rl.colidx[k]);  // output row
      tcols[o].push_back(r0 + i);        // output col
      tvals[o].push_back(rl.vals[k]);
    }
  }
  const auto got_rows = comm.alltoallv(trows);
  const auto got_cols = comm.alltoallv(tcols);
  const auto got_vals = comm.alltoallv(tvals);

  // Sort received triplets by (row, col); entries of R are unique, so the
  // order is deterministic regardless of source rank.
  std::vector<std::tuple<idx, idx, real>> trip;
  for (int s = 0; s < p; ++s) {
    for (std::size_t k = 0; k < got_rows[s].size(); ++k) {
      trip.emplace_back(got_rows[s][k], got_cols[s][k], got_vals[s][k]);
    }
  }
  std::sort(trip.begin(), trip.end(), [](const auto& x, const auto& y) {
    return std::tie(std::get<0>(x), std::get<1>(x)) <
           std::tie(std::get<0>(y), std::get<1>(y));
  });

  la::Csr t;
  t.nrows = out_rows.local_size(rank);
  t.ncols = out_cols.global_size();
  t.rowptr.assign(static_cast<std::size_t>(t.nrows) + 1, 0);
  const idx t0 = out_rows.begin(rank);
  for (const auto& [grow, gcol, v] : trip) {
    PROM_CHECK(out_rows.owner(grow) == rank);
    t.colidx.push_back(gcol);
    t.vals.push_back(v);
    t.rowptr[grow - t0 + 1] += 1;
  }
  for (idx i = 0; i < t.nrows; ++i) t.rowptr[i + 1] += t.rowptr[i];

  return DistCsr::from_local_rows(comm, t, out_rows, out_cols);
}

DistCsr dist_galerkin_product(parx::Comm& comm, const DistCsr& r,
                              const DistCsr& a,
                              std::span<const idx> fine_col_serial) {
  const obs::Span span("setup.galerkin");
  const DistCsr rt = dist_transpose(comm, r);
  const DistCsr art = dist_spgemm(comm, a, rt, fine_col_serial);
  return dist_spgemm(comm, r, art, fine_col_serial);
}

RepartitionResult repartition_mesh(parx::Comm& comm, const DistCsr& a,
                                   std::span<const idx> old_perm,
                                   std::span<const idx> new_owner) {
  const obs::Span span("rebalance.migrate");
  const int p = comm.size();
  const int rank = comm.rank();
  const idx n = a.row_dist().global_size();
  PROM_CHECK(static_cast<idx>(old_perm.size()) == n);
  PROM_CHECK(static_cast<idx>(new_owner.size()) == n);
  PROM_CHECK(a.col_dist().global_size() == n);

  // New numbering: stable-sort the serial rows by their new owner (the
  // DistHierarchy::build recipe, so downstream layouts agree bitwise).
  RepartitionResult out;
  out.perm.resize(static_cast<std::size_t>(n));
  std::iota(out.perm.begin(), out.perm.end(), idx{0});
  std::stable_sort(out.perm.begin(), out.perm.end(), [&](idx x, idx y) {
    return new_owner[x] < new_owner[y];
  });
  std::vector<idx> sorted_owner(static_cast<std::size_t>(n));
  std::vector<idx> new_of_serial(static_cast<std::size_t>(n));
  for (idx g = 0; g < n; ++g) {
    sorted_owner[g] = new_owner[out.perm[g]];
    new_of_serial[out.perm[g]] = g;
  }
  const RowDist dist = RowDist::from_sorted_owners(sorted_owner, p);

  // Ship every owned row to its new owner: (new row id, nnz, new column
  // ids ascending) in the idx stream, values in the real stream. Sorting
  // the relabeled columns permutes (column, value) pairs only — values
  // stay bit-identical to the serial matrix's.
  const la::Csr mine = local_rows_global_cols(a);
  std::vector<std::vector<idx>> send_meta(static_cast<std::size_t>(p));
  std::vector<std::vector<real>> send_vals(static_cast<std::size_t>(p));
  const idx my0 = a.row_dist().begin(rank);
  std::vector<std::pair<idx, real>> row;
  for (idx i = 0; i < mine.nrows; ++i) {
    const idx serial = old_perm[my0 + i];
    const int dest = static_cast<int>(new_owner[serial]);
    row.clear();
    for (nnz_t k = mine.rowptr[i]; k < mine.rowptr[i + 1]; ++k) {
      row.emplace_back(new_of_serial[old_perm[mine.colidx[k]]],
                       mine.vals[k]);
    }
    std::sort(row.begin(), row.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    send_meta[dest].push_back(new_of_serial[serial]);
    send_meta[dest].push_back(static_cast<idx>(row.size()));
    for (const auto& [c, v] : row) {
      send_meta[dest].push_back(c);
      send_vals[dest].push_back(v);
    }
  }
  const auto recv_meta = comm.alltoallv(send_meta);
  const auto recv_vals = comm.alltoallv(send_vals);

  // Reassemble: every new row of mine arrives exactly once; scatter the
  // payloads into their slots (deterministic for any arrival order).
  la::Csr local;
  local.nrows = dist.local_size(rank);
  local.ncols = n;
  local.rowptr.assign(static_cast<std::size_t>(local.nrows) + 1, 0);
  const idx b0 = dist.begin(rank);
  std::vector<idx> nnz_of(static_cast<std::size_t>(local.nrows), 0);
  for (int s = 0; s < p; ++s) {
    const std::vector<idx>& meta = recv_meta[s];
    for (std::size_t k = 0; k < meta.size();) {
      const idx g = meta[k];
      const idx nz = meta[k + 1];
      PROM_CHECK(g >= b0 && g < b0 + local.nrows);
      nnz_of[g - b0] = nz;
      k += 2 + static_cast<std::size_t>(nz);
    }
  }
  for (idx i = 0; i < local.nrows; ++i) {
    local.rowptr[i + 1] = local.rowptr[i] + nnz_of[i];
  }
  local.colidx.resize(static_cast<std::size_t>(local.rowptr[local.nrows]));
  local.vals.resize(local.colidx.size());
  for (int s = 0; s < p; ++s) {
    const std::vector<idx>& meta = recv_meta[s];
    const std::vector<real>& vals = recv_vals[s];
    std::size_t voff = 0;
    for (std::size_t k = 0; k < meta.size();) {
      const idx g = meta[k];
      const idx nz = meta[k + 1];
      nnz_t at = local.rowptr[g - b0];
      for (idx j = 0; j < nz; ++j) {
        local.colidx[at + j] = meta[k + 2 + static_cast<std::size_t>(j)];
        local.vals[at + j] = vals[voff++];
      }
      k += 2 + static_cast<std::size_t>(nz);
    }
    PROM_CHECK(voff == vals.size());
  }
  out.a = DistCsr::from_local_rows(comm, local, dist, dist);
  return out;
}

la::Csr dist_gather_matrix(parx::Comm& comm, const DistCsr& a) {
  const obs::Span span("setup.gather_coarse");
  const la::Csr mine = local_rows_global_cols(a);
  std::vector<nnz_t> my_counts(static_cast<std::size_t>(mine.nrows));
  for (idx i = 0; i < mine.nrows; ++i) {
    my_counts[i] = mine.rowptr[i + 1] - mine.rowptr[i];
  }
  const auto all_counts = comm.allgatherv(my_counts);
  const auto all_cols = comm.allgatherv(mine.colidx);
  const auto all_vals = comm.allgatherv(mine.vals);

  la::Csr g;
  g.nrows = a.row_dist().global_size();
  g.ncols = a.col_dist().global_size();
  g.rowptr.assign(static_cast<std::size_t>(g.nrows) + 1, 0);
  idx row = 0;
  for (int s = 0; s < comm.size(); ++s) {
    for (nnz_t nz : all_counts[s]) {
      g.rowptr[row + 1] = g.rowptr[row] + nz;
      ++row;
    }
    g.colidx.insert(g.colidx.end(), all_cols[s].begin(), all_cols[s].end());
    g.vals.insert(g.vals.end(), all_vals[s].begin(), all_vals[s].end());
  }
  PROM_CHECK(row == g.nrows);
  return g;
}

}  // namespace prom::dla
