#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "costmodel/collective_model.hpp"
#include "mps/collectives.hpp"
#include "test_utils.hpp"
#include "util/rng.hpp"

namespace ptucker {
namespace {

using testing::run_ranks;

/// All collective tests sweep communicator sizes including non-powers of
/// two (the ring and binomial algorithms must handle any P).
class Collectives : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(AllSizes, Collectives,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 13),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

/// Deterministic per-rank payload for reference computations.
std::vector<double> payload_for(int rank, std::size_t count) {
  std::vector<double> v(count);
  util::Rng rng(1000 + static_cast<std::uint64_t>(rank));
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

TEST_P(Collectives, BroadcastDeliversRootBuffer) {
  const int p = GetParam();
  for (int root = 0; root < p; root += std::max(1, p - 1)) {
    run_ranks(p, [&](mps::Comm& comm) {
      std::vector<double> buf(17);
      if (comm.rank() == root) buf = payload_for(root, 17);
      mps::broadcast(comm, std::span<double>(buf), root);
      const auto expected = payload_for(root, 17);
      EXPECT_EQ(testing::max_diff(buf.data(), expected.data(), 17), 0.0);
    });
  }
}

TEST_P(Collectives, ReduceSumsAllContributions) {
  const int p = GetParam();
  const int root = p - 1;
  run_ranks(p, [&](mps::Comm& comm) {
    const auto mine = payload_for(comm.rank(), 9);
    std::vector<double> out(comm.rank() == root ? 9 : 0);
    mps::reduce(comm, std::span<const double>(mine), std::span<double>(out),
                root);
    if (comm.rank() == root) {
      std::vector<double> expected(9, 0.0);
      for (int r = 0; r < p; ++r) {
        const auto vr = payload_for(r, 9);
        for (int i = 0; i < 9; ++i) expected[static_cast<std::size_t>(i)] += vr[static_cast<std::size_t>(i)];
      }
      EXPECT_LT(testing::max_diff(out.data(), expected.data(), 9), 1e-12);
    }
  });
}

TEST_P(Collectives, AllReduceMatchesReferenceLargePayload) {
  const int p = GetParam();
  run_ranks(p, [&](mps::Comm& comm) {
    // count >= 2P forces the reduce-scatter + all-gather path.
    const std::size_t count = static_cast<std::size_t>(4 * p + 8);
    auto buf = payload_for(comm.rank(), count);
    mps::allreduce(comm, std::span<double>(buf));
    std::vector<double> expected(count, 0.0);
    for (int r = 0; r < p; ++r) {
      const auto vr = payload_for(r, count);
      for (std::size_t i = 0; i < count; ++i) expected[i] += vr[i];
    }
    EXPECT_LT(testing::max_diff(buf.data(), expected.data(), count), 1e-12);
  });
}

TEST_P(Collectives, AllReduceMatchesReferenceSmallPayload) {
  const int p = GetParam();
  run_ranks(p, [&](mps::Comm& comm) {
    // A single element uses the latency-bound reduce+broadcast path.
    double v = static_cast<double>(comm.rank() + 1);
    mps::allreduce(comm, std::span<double>(&v, 1));
    EXPECT_DOUBLE_EQ(v, static_cast<double>(p * (p + 1) / 2));
  });
}

TEST_P(Collectives, AllReduceMax) {
  const int p = GetParam();
  run_ranks(p, [&](mps::Comm& comm) {
    double v = static_cast<double>((comm.rank() * 7) % p);
    v = mps::allreduce_scalar(comm, v, mps::Max<double>{});
    double expected = 0.0;
    for (int r = 0; r < p; ++r) {
      expected = std::max(expected, static_cast<double>((r * 7) % p));
    }
    EXPECT_DOUBLE_EQ(v, expected);
  });
}

TEST_P(Collectives, AllGatherEqualBlocks) {
  const int p = GetParam();
  run_ranks(p, [&](mps::Comm& comm) {
    const std::size_t block = 5;
    const auto mine = payload_for(comm.rank(), block);
    std::vector<double> all(block * static_cast<std::size_t>(p));
    mps::allgather(comm, std::span<const double>(mine),
                   std::span<double>(all));
    for (int r = 0; r < p; ++r) {
      const auto expected = payload_for(r, block);
      EXPECT_EQ(testing::max_diff(
                    all.data() + static_cast<std::size_t>(r) * block,
                    expected.data(), block),
                0.0)
          << "block of rank " << r;
    }
  });
}

TEST_P(Collectives, AllGatherVariableBlocks) {
  const int p = GetParam();
  run_ranks(p, [&](mps::Comm& comm) {
    // Rank r contributes r+1 elements (exercises uneven counts incl. 1).
    std::vector<std::size_t> counts(static_cast<std::size_t>(p));
    std::size_t total = 0;
    for (int r = 0; r < p; ++r) {
      counts[static_cast<std::size_t>(r)] = static_cast<std::size_t>(r + 1);
      total += static_cast<std::size_t>(r + 1);
    }
    const auto mine =
        payload_for(comm.rank(), static_cast<std::size_t>(comm.rank() + 1));
    std::vector<double> all(total);
    mps::allgatherv(comm, std::span<const double>(mine),
                    std::span<double>(all),
                    std::span<const std::size_t>(counts));
    std::size_t off = 0;
    for (int r = 0; r < p; ++r) {
      const auto expected = payload_for(r, static_cast<std::size_t>(r + 1));
      EXPECT_EQ(testing::max_diff(all.data() + off, expected.data(),
                                  expected.size()),
                0.0);
      off += expected.size();
    }
  });
}

TEST_P(Collectives, GatherVariedMatchesPayloadsAtFirstAndLastRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; root += std::max(1, p - 1)) {
    run_ranks(p, [&](mps::Comm& comm) {
      // Rank r contributes r % 4 elements: some contributions are empty.
      const auto mine =
          payload_for(comm.rank(), static_cast<std::size_t>(comm.rank() % 4));
      const auto all =
          mps::gather_varied(comm, std::span<const double>(mine), root);
      if (comm.rank() == root) {
        ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) {
          const auto expected = payload_for(r, static_cast<std::size_t>(r % 4));
          const auto& got = all[static_cast<std::size_t>(r)];
          ASSERT_EQ(got.size(), expected.size()) << "rank " << r;
          if (!got.empty()) {
            EXPECT_EQ(
                testing::max_diff(got.data(), expected.data(), got.size()),
                0.0);
          }
        }
      } else {
        EXPECT_TRUE(all.empty());
      }
    });
  }
}

TEST_P(Collectives, ScatterVariedMatchesPayloadsAtFirstAndLastRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; root += std::max(1, p - 1)) {
    run_ranks(p, [&](mps::Comm& comm) {
      std::vector<std::vector<double>> blocks;
      if (comm.rank() == root) {
        blocks.resize(static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) {
          blocks[static_cast<std::size_t>(r)] =
              payload_for(r, static_cast<std::size_t>(r % 3));
        }
      }
      const auto mine = mps::scatter_varied(comm, blocks, root);
      const auto expected =
          payload_for(comm.rank(), static_cast<std::size_t>(comm.rank() % 3));
      ASSERT_EQ(mine.size(), expected.size());
      if (!mine.empty()) {
        EXPECT_EQ(
            testing::max_diff(mine.data(), expected.data(), mine.size()),
            0.0);
      }
    });
  }
}

/// The point of the tree: the root's latency term drops from P-1 messages
/// to ceil(log2 P).
TEST_P(Collectives, TreeRootedLatencyIsLogarithmic) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP() << "no traffic for P=1";
  int log2p = 0;
  while ((1 << log2p) < p) ++log2p;
  mps::Runtime rt(p);
  rt.run([&](mps::Comm& comm) {
    std::vector<std::vector<double>> blocks;
    if (comm.rank() == 0) {
      blocks.resize(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        blocks[static_cast<std::size_t>(r)] =
            payload_for(r, static_cast<std::size_t>(5));
      }
    }
    const auto mine = mps::scatter_varied(comm, blocks, 0);
    (void)mps::gather_varied(comm, std::span<const double>(mine), 0);
  });
  // Scatter: the root sends one package per tree level. Gather: the root
  // sends nothing; every non-root sends exactly one package up.
  EXPECT_EQ(rt.rank_stats(0).op_message_count(mps::OpKind::Scatter),
            static_cast<std::uint64_t>(log2p));
  EXPECT_EQ(rt.rank_stats(0).op_message_count(mps::OpKind::Gather), 0u);
  for (int r = 1; r < p; ++r) {
    EXPECT_EQ(rt.rank_stats(r).op_message_count(mps::OpKind::Gather), 1u)
        << "rank " << r;
  }
}

TEST_P(Collectives, BarrierSynchronizes) {
  const int p = GetParam();
  run_ranks(p, [&](mps::Comm& comm) {
    for (int i = 0; i < 3; ++i) comm.barrier();
  });
}

/// --- nonblocking parity: istart + overlap + wait vs the blocking oracle ----
///
/// Every i-op compiles the SAME action script its blocking wrapper runs, so
/// the results must be bit-identical — not merely close — whatever local
/// compute happens in the overlap window and whatever order handles
/// complete in.

/// Stand-in for the local kernel work a real overlap window hides.
double local_compute(std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s += std::sin(static_cast<double>(i) * 0.37);
  }
  return s;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST_P(Collectives, IBroadcastParityBitwise) {
  const int p = GetParam();
  const int root = p - 1;
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{31}, static_cast<std::size_t>(4 * p + 3)}) {
    run_ranks(p, [&](mps::Comm& comm) {
      std::vector<double> oracle(count, 0.0);
      std::vector<double> overlapped(count, 0.0);
      if (comm.rank() == root) {
        oracle = payload_for(root, count);
        overlapped = oracle;
      }
      mps::broadcast(comm, std::span<double>(oracle), root);
      mps::CollectiveHandle h =
          mps::ibroadcast(comm, std::span<double>(overlapped), root);
      volatile double sink = local_compute(500);
      (void)sink;
      h.wait();
      EXPECT_TRUE(bitwise_equal(overlapped, oracle)) << "count " << count;
    });
  }
}

TEST_P(Collectives, IReduceParityBitwise) {
  const int p = GetParam();
  const int root = p / 2;
  for (const std::size_t count :
       {std::size_t{9}, static_cast<std::size_t>(4 * p + 5)}) {
    run_ranks(p, [&](mps::Comm& comm) {
      const auto mine = payload_for(comm.rank(), count);
      const bool is_root = comm.rank() == root;
      std::vector<double> oracle(is_root ? count : 0);
      std::vector<double> overlapped(is_root ? count : 0);
      mps::reduce(comm, std::span<const double>(mine),
                  std::span<double>(oracle), root);
      mps::CollectiveHandle h = mps::ireduce(
          comm, std::span<const double>(mine), std::span<double>(overlapped),
          root);
      volatile double sink = local_compute(500);
      (void)sink;
      h.wait();
      if (is_root) {
        EXPECT_TRUE(bitwise_equal(overlapped, oracle)) << "count " << count;
      }
    });
  }
}

/// Serial replay of the binomial tree's combine order: at round `mask`,
/// virtual rank vr (low bits below 2*mask clear) folds in the subtree of
/// vr + mask as op(acc, incoming). Virtual rank vr is rank (vr + root) % p.
template <class Op>
std::vector<double> binomial_reduce_reference(int p, int root,
                                              std::size_t count, Op op) {
  std::vector<std::vector<double>> acc;
  for (int vr = 0; vr < p; ++vr) {
    acc.push_back(payload_for((vr + root) % p, count));
  }
  for (int mask = 1; mask < p; mask <<= 1) {
    for (int vr = 0; vr + mask < p; vr += 2 * mask) {
      auto& dst = acc[static_cast<std::size_t>(vr)];
      const auto& src = acc[static_cast<std::size_t>(vr + mask)];
      for (std::size_t i = 0; i < count; ++i) dst[i] = op(dst[i], src[i]);
    }
  }
  return acc[0];
}

/// The floating-point sum depends on the fold order, so `reduce` must
/// reproduce the binomial order bit for bit, not just within rounding.
TEST_P(Collectives, ReduceMatchesBinomialOrderBitwise) {
  const int p = GetParam();
  constexpr std::size_t kCount = 33;
  auto check = [&](int root, auto op, const char* op_name) {
    const auto expected = binomial_reduce_reference(p, root, kCount, op);
    run_ranks(p, [&](mps::Comm& comm) {
      const auto mine = payload_for(comm.rank(), kCount);
      std::vector<double> out(comm.rank() == root ? kCount : 0);
      mps::reduce(comm, std::span<const double>(mine), std::span<double>(out),
                  root, op);
      if (comm.rank() == root) {
        EXPECT_TRUE(bitwise_equal(out, expected))
            << op_name << " root " << root;
      }
    });
  };
  for (const int root : {0, p - 1}) {
    check(root, mps::Sum<double>{}, "Sum");
    check(root, mps::Max<double>{}, "Max");
  }
}

TEST_P(Collectives, IAllReduceParityBitwiseBothPaths) {
  const int p = GetParam();
  // 1 element takes the reduce+broadcast tree; 4P+8 the ring pair.
  for (const std::size_t count :
       {std::size_t{1}, static_cast<std::size_t>(4 * p + 8)}) {
    run_ranks(p, [&](mps::Comm& comm) {
      auto oracle = payload_for(comm.rank(), count);
      auto overlapped = oracle;
      mps::allreduce(comm, std::span<double>(oracle));
      mps::CollectiveHandle h =
          mps::iallreduce(comm, std::span<double>(overlapped));
      volatile double sink = local_compute(500);
      (void)sink;
      h.wait();
      EXPECT_TRUE(bitwise_equal(overlapped, oracle)) << "count " << count;
    });
  }
}

TEST_P(Collectives, IAllGathervParityBitwiseRaggedCounts) {
  const int p = GetParam();
  // r+1 exercises uneven blocks; r%3 adds empty contributions.
  for (const std::size_t mod : {std::size_t{0}, std::size_t{3}}) {
    run_ranks(p, [&](mps::Comm& comm) {
      std::vector<std::size_t> counts(static_cast<std::size_t>(p));
      std::size_t total = 0;
      for (int r = 0; r < p; ++r) {
        const auto ur = static_cast<std::size_t>(r);
        counts[ur] = mod == 0 ? ur + 1 : ur % mod;
        total += counts[ur];
      }
      const auto mine = payload_for(
          comm.rank(), counts[static_cast<std::size_t>(comm.rank())]);
      std::vector<double> oracle(total);
      std::vector<double> overlapped(total);
      mps::allgatherv(comm, std::span<const double>(mine),
                      std::span<double>(oracle),
                      std::span<const std::size_t>(counts));
      mps::CollectiveHandle h = mps::iallgatherv(
          comm, std::span<const double>(mine), std::span<double>(overlapped),
          std::span<const std::size_t>(counts));
      volatile double sink = local_compute(500);
      (void)sink;
      h.wait();
      EXPECT_TRUE(bitwise_equal(overlapped, oracle)) << "mod " << mod;
    });
  }
}

/// Several collectives in flight on the same communicator, completed out of
/// initiation order and polled with test() along the way — sub-tag isolation
/// must keep their transfers from cross-matching.
TEST_P(Collectives, OutOfOrderWaitAndTestAcrossInflightOps) {
  const int p = GetParam();
  run_ranks(p, [&](mps::Comm& comm) {
    const std::size_t count = static_cast<std::size_t>(3 * p + 4);
    std::vector<std::size_t> counts(static_cast<std::size_t>(p));
    std::size_t total = 0;
    for (int r = 0; r < p; ++r) {
      counts[static_cast<std::size_t>(r)] =
          static_cast<std::size_t>(r % 3 + 1);
      total += counts[static_cast<std::size_t>(r)];
    }
    // Blocking oracles first.
    std::vector<double> bcast_oracle(count, 0.0);
    if (comm.rank() == 0) bcast_oracle = payload_for(42, count);
    mps::broadcast(comm, std::span<double>(bcast_oracle), 0);
    auto sum_oracle = payload_for(comm.rank(), count);
    mps::allreduce(comm, std::span<double>(sum_oracle));
    const auto mine = payload_for(
        comm.rank(), counts[static_cast<std::size_t>(comm.rank())]);
    std::vector<double> gather_oracle(total);
    mps::allgatherv(comm, std::span<const double>(mine),
                    std::span<double>(gather_oracle),
                    std::span<const std::size_t>(counts));

    // Three handles in flight at once, completed in reverse order.
    std::vector<double> bcast(count, 0.0);
    if (comm.rank() == 0) bcast = payload_for(42, count);
    auto sum = payload_for(comm.rank(), count);
    std::vector<double> gather(total);
    mps::CollectiveHandle hb =
        mps::ibroadcast(comm, std::span<double>(bcast), 0);
    mps::CollectiveHandle hs = mps::iallreduce(comm, std::span<double>(sum));
    mps::CollectiveHandle hg = mps::iallgatherv(
        comm, std::span<const double>(mine), std::span<double>(gather),
        std::span<const std::size_t>(counts));
    (void)hb.test();  // poll the earliest op while the others are in flight
    hg.wait();
    (void)hb.test();
    hs.wait();
    hb.wait();
    EXPECT_TRUE(bitwise_equal(bcast, bcast_oracle));
    EXPECT_TRUE(bitwise_equal(sum, sum_oracle));
    EXPECT_TRUE(bitwise_equal(gather, gather_oracle));
  });
}

/// --- cost-model validation: counters vs the impl formulas -------------------

TEST_P(Collectives, AllGatherWordCountMatchesRingModel) {
  const int p = GetParam();
  if (p == 1) GTEST_SKIP() << "no traffic for P=1";
  const std::size_t block = 12;  // equal blocks: W = 12 * p
  mps::Runtime rt(p);
  rt.run([&](mps::Comm& comm) {
    const auto mine = payload_for(comm.rank(), block);
    std::vector<double> all(block * static_cast<std::size_t>(p));
    mps::allgather(comm, std::span<const double>(mine),
                   std::span<double>(all));
  });
  const auto model = costmodel::impl_allgather(
      p, static_cast<double>(block) * static_cast<double>(p));
  for (int r = 0; r < p; ++r) {
    EXPECT_DOUBLE_EQ(rt.rank_stats(r).op_words(mps::OpKind::AllGather),
                     model.words)
        << "rank " << r;
    EXPECT_EQ(rt.rank_stats(r).op_message_count(mps::OpKind::AllGather),
              static_cast<std::uint64_t>(model.messages));
  }
}

TEST_P(Collectives, AllReduceWordCountMatchesModelLargePayload) {
  const int p = GetParam();
  if (p == 1) GTEST_SKIP() << "no traffic for P=1";
  const std::size_t count = static_cast<std::size_t>(8 * p);  // divisible
  mps::Runtime rt(p);
  rt.run([&](mps::Comm& comm) {
    auto buf = payload_for(comm.rank(), count);
    mps::allreduce(comm, std::span<double>(buf));
  });
  const auto model = costmodel::impl_allreduce(p, static_cast<double>(count));
  for (int r = 0; r < p; ++r) {
    EXPECT_DOUBLE_EQ(rt.rank_stats(r).op_words(mps::OpKind::AllReduce),
                     model.words);
  }
}

TEST_P(Collectives, BarrierMessageCountMatchesDisseminationModel) {
  const int p = GetParam();
  if (p == 1) GTEST_SKIP() << "no traffic for P=1";
  mps::Runtime rt(p);
  rt.run([](mps::Comm& comm) { comm.barrier(); });
  const auto model = costmodel::impl_barrier(p);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(rt.rank_stats(r).op_message_count(mps::OpKind::Barrier),
              static_cast<std::uint64_t>(model.messages));
  }
}

/// The paper's Tab. I bandwidth terms are lower bounds for any correct
/// implementation; ours must stay within 2x of them on the ring paths.
TEST_P(Collectives, ImplBandwidthWithinFactorTwoOfPaperModel) {
  const int p = GetParam();
  if (p == 1) GTEST_SKIP();
  const double w = 1024.0;
  EXPECT_LE(costmodel::impl_allgather(p, w).words,
            2.0 * costmodel::paper_allgather(p, w).words + 1.0);
  EXPECT_LE(costmodel::impl_allreduce(p, w).words,
            2.0 * costmodel::paper_allreduce(p, w).words + 1.0);
}

}  // namespace
}  // namespace ptucker
