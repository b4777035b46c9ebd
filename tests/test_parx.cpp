#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/flops.h"
#include "parx/runtime.h"

namespace prom::parx {
namespace {

class ParxRanks : public ::testing::TestWithParam<int> {};

TEST_P(ParxRanks, PointToPointRoundTrip) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  Runtime::run(p, [](Comm& comm) {
    // Ring: send my rank to the next rank, receive from the previous.
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    if (next != comm.rank()) {
      comm.send_value<int>(next, 7, comm.rank());
      EXPECT_EQ(comm.recv_value<int>(prev, 7), prev);
    }
  });
}

TEST_P(ParxRanks, TagMatchingIsSelective) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  Runtime::run(p, [](Comm& comm) {
    if (comm.rank() == 0) {
      // Send two tagged messages out of order; rank 1 receives by tag.
      comm.send_value<int>(1, 20, 222);
      comm.send_value<int>(1, 10, 111);
    } else if (comm.rank() == 1) {
      EXPECT_EQ(comm.recv_value<int>(0, 10), 111);
      EXPECT_EQ(comm.recv_value<int>(0, 20), 222);
    }
  });
}

TEST_P(ParxRanks, FifoPerSourceAndTag) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  Runtime::run(p, [](Comm& comm) {
    constexpr int kN = 50;
    if (comm.rank() == 0) {
      for (int i = 0; i < kN; ++i) comm.send_value<int>(1, 3, i);
    } else if (comm.rank() == 1) {
      for (int i = 0; i < kN; ++i) {
        EXPECT_EQ(comm.recv_value<int>(0, 3), i);
      }
    }
  });
}

TEST_P(ParxRanks, Barrier) {
  const int p = GetParam();
  std::atomic<int> phase_one{0};
  std::atomic<bool> violated{false};
  Runtime::run(p, [&](Comm& comm) {
    phase_one.fetch_add(1);
    comm.barrier();
    if (phase_one.load() != comm.size()) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST_P(ParxRanks, AllreduceSumMinMax) {
  const int p = GetParam();
  Runtime::run(p, [p](Comm& comm) {
    const double mine = comm.rank() + 1;
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(mine), p * (p + 1) / 2.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_min(mine), 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_max(mine), static_cast<double>(p));
    EXPECT_EQ(comm.allreduce_sum(std::int64_t{2}), 2 * p);
  });
}

TEST_P(ParxRanks, AllreduceVector) {
  const int p = GetParam();
  Runtime::run(p, [p](Comm& comm) {
    std::vector<double> v = {1.0 * comm.rank(), 1.0};
    v = comm.allreduce(v, Comm::ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(v[0], p * (p - 1) / 2.0);
    EXPECT_DOUBLE_EQ(v[1], static_cast<double>(p));
  });
}

TEST_P(ParxRanks, BcastFromEveryRoot) {
  const int p = GetParam();
  Runtime::run(p, [p](Comm& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> data;
      if (comm.rank() == root) data = {root, 10 * root, -1};
      data = comm.bcast(std::move(data), root);
      ASSERT_EQ(data.size(), 3u);
      EXPECT_EQ(data[0], root);
      EXPECT_EQ(data[1], 10 * root);
    }
  });
}

TEST_P(ParxRanks, Allgatherv) {
  const int p = GetParam();
  Runtime::run(p, [](Comm& comm) {
    // Rank r contributes r+1 copies of its rank id.
    std::vector<int> mine(static_cast<std::size_t>(comm.rank()) + 1,
                          comm.rank());
    const auto all = comm.allgatherv(mine);
    ASSERT_EQ(static_cast<int>(all.size()), comm.size());
    for (int r = 0; r < comm.size(); ++r) {
      ASSERT_EQ(static_cast<int>(all[r].size()), r + 1);
      for (int v : all[r]) EXPECT_EQ(v, r);
    }
  });
}

TEST_P(ParxRanks, Alltoallv) {
  const int p = GetParam();
  Runtime::run(p, [p](Comm& comm) {
    std::vector<std::vector<int>> send(p);
    for (int r = 0; r < p; ++r) send[r] = {100 * comm.rank() + r};
    const auto recv = comm.alltoallv(send);
    for (int r = 0; r < p; ++r) {
      ASSERT_EQ(recv[r].size(), 1u);
      EXPECT_EQ(recv[r][0], 100 * r + comm.rank());
    }
  });
}

TEST_P(ParxRanks, RecvIntoMatchesRecv) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  Runtime::run(p, [](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    std::vector<double> mine(17);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      mine[i] = 100.0 * comm.rank() + static_cast<double>(i);
    }
    comm.send<double>(next, 31, mine);
    std::vector<double> got(mine.size(), -1.0);
    comm.recv_into<double>(prev, 31, got);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], 100.0 * prev + static_cast<double>(i));
    }
  });
}

TEST(Parx, WaitAnyReturnsArrivalOrder) {
  // Rank 2 sends first and rank 1 only after rank 0 has consumed rank 2's
  // message, so wait_any must report rank 2 although rank 1 is listed
  // first — a rank-ordered drain would block on the still-silent rank 1.
  Runtime::run(3, [](Comm& comm) {
    constexpr int kTag = 41;
    if (comm.rank() == 0) {
      const std::vector<int> sources = {1, 2};
      const int first = comm.wait_any(sources, kTag);
      EXPECT_EQ(first, 2);
      EXPECT_EQ(comm.recv_value<int>(first, kTag), 22);
      comm.send_value<int>(1, kTag + 1, 0);  // release rank 1
      const int second = comm.wait_any(sources, kTag);
      EXPECT_EQ(second, 1);
      EXPECT_EQ(comm.recv_value<int>(second, kTag), 11);
    } else if (comm.rank() == 1) {
      (void)comm.recv_value<int>(0, kTag + 1);
      comm.send_value<int>(0, kTag, 11);
    } else {
      comm.send_value<int>(0, kTag, 22);
    }
  });
}

TEST(Parx, WaitAnyIgnoresUnlistedSourcesAndTags) {
  Runtime::run(3, [](Comm& comm) {
    constexpr int kTag = 43;
    if (comm.rank() == 0) {
      // Rank 2's wrong-tag message and rank 1's unlisted-source message
      // must not satisfy the wait.
      (void)comm.recv_value<int>(1, kTag);      // ensure both arrived
      (void)comm.recv_value<int>(2, kTag + 1);  // wrong-tag arrival
      const std::vector<int> sources = {2};
      EXPECT_FALSE(comm.has_message(2, kTag));
      comm.send_value<int>(2, kTag, 0);  // ask rank 2 for the real one
      EXPECT_EQ(comm.wait_any(sources, kTag), 2);
      EXPECT_EQ(comm.recv_value<int>(2, kTag), 99);
    } else if (comm.rank() == 1) {
      comm.send_value<int>(0, kTag, 1);
    } else {
      comm.send_value<int>(0, kTag + 1, 2);
      (void)comm.recv_value<int>(0, kTag);
      comm.send_value<int>(0, kTag, 99);
    }
  });
}

TEST(Parx, AllgathervTrafficAvoidsRootFunnel) {
  // Dissemination allgatherv ships every foreign block to every receiver
  // exactly once: total data = (p-1) * S plus one 8-byte length header
  // per shipped block. The old gather-to-root + bcast path moved ~2x the
  // payload (S per rank to root, then the p*S concatenation down a
  // binomial tree), so total traffic must now stay strictly below p * S.
  const int p = 8;
  static constexpr std::size_t kPerRank = 1000;
  const auto stats = Runtime::run(p, [](Comm& comm) {
    std::vector<double> mine(kPerRank, 1.0 + comm.rank());
    const auto all = comm.allgatherv(mine);
    for (int r = 0; r < comm.size(); ++r) {
      ASSERT_EQ(all[r].size(), kPerRank);
      EXPECT_EQ(all[r][0], 1.0 + r);
    }
  });
  const std::int64_t per_rank =
      static_cast<std::int64_t>(kPerRank) * sizeof(double);
  const std::int64_t payload = p * per_rank;  // S: the gathered result
  std::int64_t total_bytes = 0;
  for (const auto& s : stats) total_bytes += s.bytes_sent;
  // (p-1) foreign blocks per receiver plus an 8-byte header per block.
  EXPECT_EQ(total_bytes,
            std::int64_t{p} * (p - 1) * per_rank + std::int64_t{8} * p * (p - 1));
  EXPECT_LT(total_bytes, p * payload);
}

TEST_P(ParxRanks, TrafficStatsCountSends) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  const auto stats = Runtime::run(p, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> payload(100, 1.0);
      comm.send<double>(1, 5, payload);
    } else if (comm.rank() == 1) {
      (void)comm.recv<double>(0, 5);
    }
  });
  EXPECT_EQ(stats[0].messages_sent, 1);
  EXPECT_EQ(stats[0].bytes_sent, 800);
  if (p > 1) {
    EXPECT_EQ(stats[1].messages_sent, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParxRanks,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13));

TEST(Parx, ExceptionInRankPropagates) {
  EXPECT_THROW(Runtime::run(3,
                            [](Comm& comm) {
                              if (comm.rank() == 1) {
                                throw Error("rank 1 exploded");
                              }
                            }),
               Error);
}

// A rank failure aborts the region. The other ranks are blocked in a
// wait on the failing rank (or about to enter one), wake with Aborted, and
// run() rethrows the failing rank's own error — never Aborted. Each case
// fails the first or the last rank, either at once (the others may not
// have reached the wait yet) or only after every other rank has announced
// it is entering the wait (they are blocked, or about to block, on the
// failed rank). Every wait below depends on the failing rank, so no other
// rank can leave it normally.
enum class Wait {
  kRecv,
  kRecvInto,
  kWaitAny,
  kBarrier,
  kBcast,
  kAllreduce,
  kAllgatherv
};

constexpr const char* kWaitNames[] = {"recv",      "recv_into", "wait_any",
                                      "barrier",   "bcast",     "allreduce",
                                      "allgatherv"};

void enter_wait(Comm& comm, Wait w, int failing) {
  constexpr int kTag = 31;
  switch (w) {
    case Wait::kRecv:
      (void)comm.recv<int>(failing, kTag);
      break;
    case Wait::kRecvInto: {
      int v = 0;
      comm.recv_into<int>(failing, kTag, {&v, 1});
      break;
    }
    case Wait::kWaitAny: {
      const int sources[] = {failing};
      (void)comm.wait_any(sources, kTag);
      break;
    }
    case Wait::kBarrier:
      comm.barrier();
      break;
    case Wait::kBcast:
      (void)comm.bcast(std::vector<int>{1}, failing);
      break;
    case Wait::kAllreduce:
      (void)comm.allreduce_sum(1.0);
      break;
    case Wait::kAllgatherv:
      (void)comm.allgatherv(std::vector<int>{comm.rank()});
      break;
  }
}

struct RankFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class ParxAbort : public ::testing::TestWithParam<std::tuple<Wait, int>> {};

TEST_P(ParxAbort, RunRethrowsTheFailingRanksError) {
  const auto [wait, p] = GetParam();
  for (const int failing : {0, p - 1}) {
    for (const bool inside : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "failing rank " << failing
                                        << (inside ? ", inside" : ", before"));
      const std::string what = "rank " + std::to_string(failing) + " failed";
      std::atomic<int> entering{0};
      try {
        Runtime::run(p, [&](Comm& comm) {
          if (comm.rank() != failing) {
            entering.fetch_add(1);
            enter_wait(comm, wait, failing);
            ADD_FAILURE() << "rank " << comm.rank() << " left the wait";
            return;
          }
          if (inside) {
            while (entering.load() < p - 1) std::this_thread::yield();
          }
          throw RankFailure(what);
        });
        ADD_FAILURE() << "run returned normally";
      } catch (const RankFailure& e) {
        EXPECT_EQ(e.what(), what);
      } catch (const Aborted&) {
        ADD_FAILURE() << "run rethrew Aborted instead of the original error";
      }
    }
  }
  // An aborted region leaves nothing behind: the next one runs normally.
  Runtime::run(p, [](Comm& comm) { comm.barrier(); });
}

INSTANTIATE_TEST_SUITE_P(
    Waits, ParxAbort,
    ::testing::Combine(::testing::Values(Wait::kRecv, Wait::kRecvInto,
                                         Wait::kWaitAny, Wait::kBarrier,
                                         Wait::kBcast, Wait::kAllreduce,
                                         Wait::kAllgatherv),
                       ::testing::Values(2, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<Wait, int>>& info) {
      return kWaitNames[static_cast<int>(std::get<0>(info.param))] +
             std::string("_p") + std::to_string(std::get<1>(info.param));
    });

TEST(Parx, FlopCountsPerRank) {
  const auto stats = Runtime::run(4, [](Comm& comm) {
    count_flops(10 * (comm.rank() + 1));
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(stats[r].flops, 10 * (r + 1));
}

}  // namespace
}  // namespace prom::parx
