#include "dla/halo.h"

#include "common/error.h"
#include "common/flops.h"

namespace prom::dla {

void HaloPlan::add_send(int peer, std::vector<idx> gather) {
  PROM_CHECK(!gather.empty());
  send_peers_.push_back(peer);
  send_idx_.insert(send_idx_.end(), gather.begin(), gather.end());
  send_off_.push_back(send_idx_.size());
}

void HaloPlan::add_recv(int peer, std::vector<idx> slots) {
  PROM_CHECK(!slots.empty());
  recv_peers_.push_back(peer);
  recv_slots_.insert(recv_slots_.end(), slots.begin(), slots.end());
  recv_off_.push_back(recv_slots_.size());
}

void HaloPlan::finalize(int tag) {
  tag_ = tag;
  ensure_staging(1);
  pending_.reserve(std::max(send_peers_.size(), recv_peers_.size()));
}

void HaloPlan::ensure_staging(int k) const {
  if (k <= width_) return;
  send_buf_.resize(send_idx_.size() * static_cast<std::size_t>(k));
  recv_buf_.resize(recv_slots_.size() * static_cast<std::size_t>(k));
  width_ = k;
}

template <class Arrived>
void HaloPlan::drain(parx::Comm& comm, bool reverse, int k,
                     const Arrived& arrived) const {
  const std::vector<int>& peers = reverse ? send_peers_ : recv_peers_;
  const std::vector<std::size_t>& off = reverse ? send_off_ : recv_off_;
  std::vector<real>& buf = reverse ? send_buf_ : recv_buf_;
  const int tag = reverse ? tag_ + 1 : tag_;
  pending_.assign(peers.begin(), peers.end());
  while (!pending_.empty()) {
    const int src = comm.wait_any(pending_, tag);
    const std::size_t p = static_cast<std::size_t>(
        std::find(peers.begin(), peers.end(), src) - peers.begin());
    comm.recv_into<real>(
        src, tag,
        std::span<real>(buf.data() + off[p] * k, (off[p + 1] - off[p]) * k));
    arrived(p);
    pending_.erase(std::find(pending_.begin(), pending_.end(), src));
  }
}

void HaloPlan::post(parx::Comm& comm, la::BlockCRef x_local) const {
  const obs::Span span("halo.post");
  const int k = x_local.cols();
  ensure_staging(k);
  for (std::size_t p = 0; p < send_peers_.size(); ++p) {
    const std::size_t c0 = send_off_[p];
    const std::size_t cnt = send_off_[p + 1] - c0;
    real* seg = send_buf_.data() + c0 * k;
    for (int j = 0; j < k; ++j) {
      const real* xj = x_local.col_data(j);
      real* out = seg + static_cast<std::size_t>(j) * cnt;
      for (std::size_t t = 0; t < cnt; ++t) {
        const idx li = send_idx_[c0 + t];
        out[t] = li == kInvalidIdx ? real{0} : xj[li];
      }
    }
    comm.send<real>(send_peers_[p], tag_,
                    std::span<const real>(seg, cnt * k));
  }
}

void HaloPlan::finish(parx::Comm& comm, la::BlockRef dst) const {
  const obs::Span span("halo.finish");
  const int k = dst.cols();
  ensure_staging(k);
  drain(comm, /*reverse=*/false, k, [&](std::size_t p) {
    const std::size_t c0 = recv_off_[p];
    const std::size_t cnt = recv_off_[p + 1] - c0;
    const real* seg = recv_buf_.data() + c0 * k;
    for (int j = 0; j < k; ++j) {
      real* dj = dst.col_data(j);
      const real* in = seg + static_cast<std::size_t>(j) * cnt;
      for (std::size_t t = 0; t < cnt; ++t) dj[recv_slots_[c0 + t]] = in[t];
    }
  });
}

void HaloPlan::reverse_post(parx::Comm& comm, la::BlockCRef src) const {
  const obs::Span span("halo.post");
  const int k = src.cols();
  ensure_staging(k);
  for (std::size_t p = 0; p < recv_peers_.size(); ++p) {
    const std::size_t c0 = recv_off_[p];
    const std::size_t cnt = recv_off_[p + 1] - c0;
    real* seg = recv_buf_.data() + c0 * k;
    for (int j = 0; j < k; ++j) {
      const real* sj = src.col_data(j);
      real* out = seg + static_cast<std::size_t>(j) * cnt;
      for (std::size_t t = 0; t < cnt; ++t) out[t] = sj[recv_slots_[c0 + t]];
    }
    comm.send<real>(recv_peers_[p], tag_ + 1,
                    std::span<const real>(seg, cnt * k));
  }
}

void HaloPlan::reverse_accumulate(parx::Comm& comm,
                                  la::BlockRef y_local) const {
  const obs::Span span("halo.finish");
  const int k = y_local.cols();
  ensure_staging(k);
  // Stage every reply in arrival order; the accumulation below runs per
  // column in registration order (peers ascending, entries ascending
  // within each peer), so the result is independent of message timing.
  drain(comm, /*reverse=*/true, k, [](std::size_t) {});
  for (int j = 0; j < k; ++j) {
    real* yj = y_local.col_data(j);
    for (std::size_t p = 0; p < send_peers_.size(); ++p) {
      const std::size_t c0 = send_off_[p];
      const std::size_t cnt = send_off_[p + 1] - c0;
      const real* in =
          send_buf_.data() + c0 * k + static_cast<std::size_t>(j) * cnt;
      for (std::size_t t = 0; t < cnt; ++t) {
        const idx li = send_idx_[c0 + t];
        if (li != kInvalidIdx) yj[li] += in[t];
      }
    }
  }
  count_flops(static_cast<std::int64_t>(send_idx_.size()) * k);
}

}  // namespace prom::dla
