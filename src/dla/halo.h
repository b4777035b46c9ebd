// Latency-hiding halo exchange shared by DistCsr, DistBsr and DistMf (§6:
// halo cost is amortized against per-rank flops only if communication and
// interior compute actually overlap). A HaloPlan is built once per
// operator: per peer, the flattened gather list of local values to ship
// and the absolute destination slots to fill, plus persistent staging
// buffers grown to the widest column block seen — after that an exchange
// performs no heap allocation in this layer (the parx transport still
// buffers messages, like MPI_Bsend).
//
// Every exchange moves a column block (la::ColBlock): all k columns travel
// in ONE message per peer, column-major within the peer's segment (value
// t of column j at j*c + t for a segment of c values). The message count —
// and hence the latency bill — is that of a single column; only the
// payload grows. A single vector is the k=1 block, whose wire layout is
// the plain segment.
//
// The overlap schedule, written once in halo_apply() below, is post() →
// stage owned values → compute interior rows → finish() → compute
// boundary rows. finish() drains peers in *arrival* order
// (parx::Comm::wait_any); that is deterministic because each peer's
// destination slots are disjoint, and every row still accumulates in its
// sorted-column order over the same extended vector, so the result does
// not depend on message timing. The reverse (transpose) exchange also
// stages replies in arrival order but *accumulates* them in fixed peer
// order — reverse contributions from different peers may target the same
// output entry, so the summation order must not depend on timing.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/config.h"
#include "la/multivec.h"
#include "obs/trace.h"
#include "parx/runtime.h"

namespace prom::dla {

/// One operator's neighbor-exchange plan with persistent staging buffers.
class HaloPlan {
 public:
  /// Registers a peer this rank sends to. `gather[i]` is the local index
  /// of the i-th wire value; kInvalidIdx ships a literal 0 (DistBsr's
  /// constrained/padding node components).
  void add_send(int peer, std::vector<idx> gather);

  /// Registers a peer this rank receives from. `slots[i]` is the absolute
  /// row (into each destination column of finish()) the i-th wire value
  /// fills. Slots of different peers are disjoint by construction.
  void add_recv(int peer, std::vector<idx> slots);

  /// Sizes the staging buffers for one column. The forward exchange uses
  /// `tag`, the reverse (transpose) exchange `tag + 1`.
  void finalize(int tag);

  int num_send_peers() const { return static_cast<int>(send_peers_.size()); }
  int num_recv_peers() const { return static_cast<int>(recv_peers_.size()); }
  /// Total scalar values shipped / received per column per exchange.
  std::int64_t send_count() const {
    return static_cast<std::int64_t>(send_idx_.size());
  }
  std::int64_t recv_count() const {
    return static_cast<std::int64_t>(recv_slots_.size());
  }

  // ---- forward exchange (owner -> ghost) ----

  /// Packs every column of `x_local` and sends each peer its segment.
  /// Returns immediately (parx sends are buffered).
  void post(parx::Comm& comm, la::BlockCRef x_local) const;

  /// Drains all pending peers in arrival order, scattering each segment
  /// into `dst` at the registered slots (same column count as post()).
  void finish(parx::Comm& comm, la::BlockRef dst) const;

  // ---- reverse exchange (ghost contributions -> owner) ----

  /// Ships each recv peer the values its slots hold in `src` (used by
  /// spmv_transpose: the ghost rows of y_ext go back to their owners).
  void reverse_post(parx::Comm& comm, la::BlockCRef src) const;

  /// Receives one reverse message per send peer (staged in arrival order)
  /// and accumulates `y_local[gather[i]] += value` column by column in
  /// *fixed* peer order — reverse targets overlap across peers, so the
  /// accumulation order must be a function of the plan alone. kInvalidIdx
  /// gather entries are dropped.
  void reverse_accumulate(parx::Comm& comm, la::BlockRef y_local) const;

 private:
  /// Grows the staging to k columns (never shrinks).
  void ensure_staging(int k) const;
  /// Receives one k-column message per peer of the forward (recv peers,
  /// recv_buf_) or reverse (send peers, send_buf_) direction, in arrival
  /// order, into the peer's staging segment; calls arrived(p) after each.
  template <class Arrived>
  void drain(parx::Comm& comm, bool reverse, int k,
             const Arrived& arrived) const;

  int tag_ = 0;
  std::vector<int> send_peers_;
  std::vector<std::size_t> send_off_{0};  // per-peer segment offsets
  std::vector<idx> send_idx_;             // flattened gather lists
  std::vector<int> recv_peers_;
  std::vector<std::size_t> recv_off_{0};
  std::vector<idx> recv_slots_;  // flattened absolute destination slots
  // Persistent staging, sized for the widest block seen and reused by
  // every exchange. send_buf_ doubles as the reverse-direction receive
  // staging (the reverse payload per peer has exactly the forward send
  // length).
  mutable std::vector<real> send_buf_;
  mutable std::vector<real> recv_buf_;
  mutable std::vector<int> pending_;  // wait_any scratch
  mutable int width_ = 0;
};

/// Views `buf` as an n x k block, growing it (zero-filled) to the widest k
/// seen. Column j always starts at j*n, so growth never moves a column's
/// contents or clears it: whatever invariant an operator keeps in its
/// extended vector (DistBsr's zero owned-padding slots) survives a width
/// change.
inline la::BlockRef grow_block(std::vector<real>& buf, idx n, int k) {
  const std::size_t need = static_cast<std::size_t>(n) * k;
  if (buf.size() < need) buf.resize(need, real{0});
  return {buf.data(), n, k};
}

/// The overlap schedule every distributed operator runs, written once:
/// post `x`'s owned values, stage them into the extended block `x_ext`
/// (row i of x goes to row owned_slots[i], or to row i when the list is
/// empty), compute(false) on the rows that need no ghost value, drain the
/// peers in arrival order into `x_ext`, then compute(true) on the rest.
template <class Compute>
void halo_apply(parx::Comm& comm, const HaloPlan& plan, la::BlockCRef x,
                la::BlockRef x_ext, std::span<const idx> owned_slots,
                const Compute& compute) {
  plan.post(comm, x);
  for (int j = 0; j < x.cols(); ++j) {
    const real* xj = x.col_data(j);
    real* ext = x_ext.col_data(j);
    if (owned_slots.empty()) {
      std::copy(xj, xj + x.rows(), ext);
    } else {
      for (idx i = 0; i < x.rows(); ++i) ext[owned_slots[i]] = xj[i];
    }
  }
  {
    const obs::Span span("halo.interior");
    compute(false);
  }
  plan.finish(comm, x_ext);
  const obs::Span span("halo.boundary");
  compute(true);
}

}  // namespace prom::dla
