// parx — a virtual message-passing runtime (the project's MPI substitute,
// see DESIGN.md substitution 1). `Runtime::run(nranks, fn)` launches one
// thread per rank and executes `fn` SPMD-style; ranks communicate only
// through the `Comm` handle: buffered point-to-point sends, blocking
// tag-matched receives, and tree-based collectives. Per-rank traffic
// statistics (message/byte counts) feed the §6 communication-efficiency
// model in `src/perf`.
//
// Semantics intentionally mirror the MPI subset the paper's stack uses:
//  - send() is buffered and never blocks (like MPI_Bsend);
//  - recv() blocks until a message with matching (source, tag) arrives;
//    messages from the same source with the same tag are FIFO;
//  - wait_any() blocks until a message from any listed source arrives,
//    so receivers can drain peers in arrival order (MPI_Waitany);
//  - collectives are implemented over point-to-point with binomial trees
//    or log-round dissemination schedules, so their traffic is O(log P)
//    deep like a real MPI implementation;
//  - a rank that throws aborts the whole region (like MPI_Abort): every
//    other rank's blocking wait throws Aborted instead of hanging.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "obs/trace.h"

namespace prom::parx {

/// Per-rank communication counters, returned by Runtime::run.
struct TrafficStats {
  std::int64_t messages_sent = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t flops = 0;  ///< flops counted on the rank's thread
};

namespace detail {
class Context;
}

/// Thrown by every blocking wait (recv, recv_into, wait_any, and so the
/// barrier and every collective) once another rank of the same
/// Runtime::run has failed: the region is being torn down, so nothing the
/// caller waits for will arrive. Runtime::run never rethrows it — it
/// rethrows the failing rank's original error instead.
class Aborted : public std::runtime_error {
 public:
  Aborted() : std::runtime_error("parx: another rank failed") {}
};

/// Per-rank communicator handle over every rank of one Runtime::run; only
/// valid inside it. A cheap value type: a context pointer and a rank.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Buffered, non-blocking send of raw bytes. `tag` must be >= 0 (negative
  /// tags are reserved for collectives).
  void send_bytes(int to, int tag, std::span<const std::byte> data);

  /// Blocking receive of a message from `from` with tag `tag`.
  std::vector<std::byte> recv_bytes(int from, int tag);

  /// Blocking receive into a caller-provided buffer (no allocation). The
  /// message size must equal `out.size()`.
  void recv_bytes_into(int from, int tag, std::span<std::byte> out);

  /// True if a message from (from, tag) is already waiting.
  bool has_message(int from, int tag) const;

  /// Blocks until a message with `tag` from any rank in `sources` is
  /// waiting and returns that source — the one whose message arrived
  /// earliest, so pairing wait_any with recv drains peers in arrival
  /// order (MPI_Waitany). Does not consume the message.
  int wait_any(std::span<const int> sources, int tag) const;

  /// Snapshot of this rank's cumulative traffic counters (messages/bytes
  /// sent so far) plus the calling thread's flop counter — used to bracket
  /// per-phase measurements (§6).
  TrafficStats traffic() const;

  // ---- typed convenience wrappers (T must be trivially copyable) ----

  template <typename T>
  void send(int to, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(to, tag, std::as_bytes(data));
  }

  template <typename T>
  void send(int to, int tag, const std::vector<T>& data) {
    send<T>(to, tag, std::span<const T>(data));
  }

  template <typename T>
  void send_value(int to, int tag, const T& value) {
    send<T>(to, tag, std::span<const T>(&value, 1));
  }

  template <typename T>
  std::vector<T> recv(int from, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> raw = recv_bytes(from, tag);
    PROM_CHECK(raw.size() % sizeof(T) == 0);
    std::vector<T> out(raw.size() / sizeof(T));
    // Empty messages are legal; memcpy's pointers must not be null then.
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  template <typename T>
  T recv_value(int from, int tag) {
    std::vector<T> v = recv<T>(from, tag);
    PROM_CHECK(v.size() == 1);
    return v[0];
  }

  /// Typed blocking receive into a caller-provided buffer; the message
  /// must hold exactly `out.size()` elements.
  template <typename T>
  void recv_into(int from, int tag, std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    recv_bytes_into(from, tag, std::as_writable_bytes(out));
  }

  // ---- collectives (all ranks must call; tree-based over p2p) ----

  void barrier();

  /// Element-wise reduction of equal-length vectors; result on all ranks.
  enum class ReduceOp { kSum, kMin, kMax };
  std::vector<double> allreduce(std::vector<double> v, ReduceOp op);
  std::vector<std::int64_t> allreduce(std::vector<std::int64_t> v,
                                      ReduceOp op);

  double allreduce_sum(double v) {
    return allreduce(std::vector<double>{v}, ReduceOp::kSum)[0];
  }
  double allreduce_max(double v) {
    return allreduce(std::vector<double>{v}, ReduceOp::kMax)[0];
  }
  double allreduce_min(double v) {
    return allreduce(std::vector<double>{v}, ReduceOp::kMin)[0];
  }
  std::int64_t allreduce_sum(std::int64_t v) {
    return allreduce(std::vector<std::int64_t>{v}, ReduceOp::kSum)[0];
  }

  /// Broadcast `data` from `root` to all ranks (returned everywhere).
  template <typename T>
  std::vector<T> bcast(std::vector<T> data, int root);

  /// Variable-size gather-to-all: every rank contributes `mine`, every rank
  /// receives all contributions indexed by rank. Bruck-style dissemination
  /// (ceil(log2 P) rounds; every foreign block crosses the wire exactly
  /// once per receiver), so no rank funnels the whole payload.
  template <typename T>
  std::vector<std::vector<T>> allgatherv(const std::vector<T>& mine);

  /// Personalized all-to-all: `sendbufs[r]` goes to rank r; returns the
  /// buffers received from each rank.
  template <typename T>
  std::vector<std::vector<T>> alltoallv(
      const std::vector<std::vector<T>>& sendbufs);

 private:
  friend class Runtime;
  friend class detail::Context;
  Comm(detail::Context* ctx, int rank) : ctx_(ctx), rank_(rank) {}

  std::vector<std::byte> bcast_bytes(std::vector<std::byte> data, int root);
  std::vector<std::vector<std::byte>> allgatherv_bytes(
      std::span<const std::byte> mine);

  detail::Context* ctx_;
  int rank_;
};

/// Launches an SPMD region on `nranks` virtual ranks (threads). The first
/// exception a rank throws aborts the region — every rank blocked in, or
/// later entering, a wait throws Aborted — and is rethrown after all
/// ranks join.
class Runtime {
 public:
  static std::vector<TrafficStats> run(
      int nranks, const std::function<void(Comm&)>& fn);
};

// ---- template definitions -------------------------------------------------

template <typename T>
std::vector<T> Comm::bcast(std::vector<T> data, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> raw(data.size() * sizeof(T));
  if (rank_ == root && !raw.empty()) {
    std::memcpy(raw.data(), data.data(), raw.size());
  }
  raw = bcast_bytes(std::move(raw), root);
  std::vector<T> out(raw.size() / sizeof(T));
  if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

template <typename T>
std::vector<std::vector<T>> Comm::allgatherv(const std::vector<T>& mine) {
  const obs::Span span("parx.allgatherv");
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::vector<std::byte>> raw =
      allgatherv_bytes(std::as_bytes(std::span<const T>(mine)));
  std::vector<std::vector<T>> all(raw.size());
  for (std::size_t r = 0; r < raw.size(); ++r) {
    PROM_CHECK(raw[r].size() % sizeof(T) == 0);
    all[r].resize(raw[r].size() / sizeof(T));
    if (!raw[r].empty()) {
      std::memcpy(all[r].data(), raw[r].data(), raw[r].size());
    }
  }
  return all;
}

template <typename T>
std::vector<std::vector<T>> Comm::alltoallv(
    const std::vector<std::vector<T>>& sendbufs) {
  const obs::Span span("parx.alltoallv");
  const int p = size();
  PROM_CHECK(static_cast<int>(sendbufs.size()) == p);
  constexpr int kTag = 0x7ffffff0;
  for (int r = 0; r < p; ++r) {
    if (r != rank_) send<T>(r, kTag, sendbufs[r]);
  }
  std::vector<std::vector<T>> recvbufs(p);
  recvbufs[rank_] = sendbufs[rank_];
  // Drain peers in arrival order (destinations are disjoint per source),
  // so one slow peer never stalls buffers that have already landed.
  std::vector<int> pending;
  pending.reserve(static_cast<std::size_t>(p > 0 ? p - 1 : 0));
  for (int r = 0; r < p; ++r) {
    if (r != rank_) pending.push_back(r);
  }
  while (!pending.empty()) {
    const int src = wait_any(pending, kTag);
    recvbufs[src] = recv<T>(src, kTag);
    pending.erase(std::find(pending.begin(), pending.end(), src));
  }
  return recvbufs;
}

}  // namespace prom::parx
