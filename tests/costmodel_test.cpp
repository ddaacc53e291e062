#include <gtest/gtest.h>

#include "blas/blas.hpp"
#include "core/st_hosvd.hpp"
#include "costmodel/collective_model.hpp"
#include "costmodel/tucker_model.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using dist::DistTensor;
using tensor::Dims;
using testing::run_ranks;

TEST(CollectiveModel, PaperTableOneFormulas) {
  // Spot-check the Tab. I entries for P = 8, W = 800.
  const auto send = costmodel::paper_send(800.0);
  EXPECT_DOUBLE_EQ(send.messages, 1.0);
  EXPECT_DOUBLE_EQ(send.words, 800.0);

  const auto ag = costmodel::paper_allgather(8, 800.0);
  EXPECT_DOUBLE_EQ(ag.messages, 3.0);          // log2 8
  EXPECT_DOUBLE_EQ(ag.words, 700.0);           // (P-1)/P * W

  const auto red = costmodel::paper_reduce(8, 800.0);
  EXPECT_DOUBLE_EQ(red.messages, 3.0);
  EXPECT_DOUBLE_EQ(red.words, 700.0);

  const auto ar = costmodel::paper_allreduce(8, 800.0);
  EXPECT_DOUBLE_EQ(ar.messages, 6.0);          // 2 log2 8
  EXPECT_DOUBLE_EQ(ar.words, 1400.0);          // 2 (P-1)/P W
}

TEST(CollectiveModel, TrivialCommunicatorCostsNothing) {
  EXPECT_DOUBLE_EQ(costmodel::paper_allgather(1, 100.0).words, 0.0);
  EXPECT_DOUBLE_EQ(costmodel::impl_allreduce(1, 100.0).words, 0.0);
  EXPECT_DOUBLE_EQ(costmodel::impl_barrier(1).messages, 0.0);
}

TEST(TuckerModel, TtmFlopsAreExactForMeasuredRun) {
  // The gemm-based TTM performs exactly 2*J*K flops in total across ranks
  // (paper's C_TTM flop term times P).
  const Dims dims{12, 10, 8};
  const std::size_t k = 4;
  const int mode = 1;
  const auto model = costmodel::ttm_cost(dims, k, mode, {2, 2, 1});

  std::uint64_t measured = 0;
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, dims, Dims{4, 4, 4}, 5, 0.0);
    comm.barrier();
    if (comm.rank() == 0) blas::reset_flop_count();
    comm.barrier();
    const tensor::Matrix m = tensor::Matrix::randn(k, dims[1], 3);
    (void)dist::ttm(x, m, mode);
    comm.barrier();
    if (comm.rank() == 0) measured = blas::flop_count();
  });
  EXPECT_DOUBLE_EQ(static_cast<double>(measured), model.flops * 4.0);
}

TEST(TuckerModel, GramFlopsMatchSymmetricKernelOnFourRankRing) {
  // dist::gram runs the packed symmetric diagonal-block kernel on every
  // ring, not only on Pn <= 2, and the model prices exactly that kernel.
  const Dims dims{12, 8, 6};
  const int mode = 0;
  const std::vector<int> shape{4, 1, 1};
  const auto model =
      costmodel::gram_cost(dims, mode, shape, /*symmetric=*/true);
  std::uint64_t measured = 0;
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, shape);
    const DistTensor x =
        data::make_low_rank(grid, dims, Dims{4, 4, 4}, 7, 0.0);
    comm.barrier();
    if (comm.rank() == 0) blas::reset_flop_count();
    comm.barrier();
    (void)dist::gram(x, mode);
    comm.barrier();
    if (comm.rank() == 0) measured = blas::flop_count();
  });
  EXPECT_DOUBLE_EQ(static_cast<double>(measured), model.flops * 4.0);
}

TEST(TuckerModel, TtmWordVolumeMatchesBlockedImplementation) {
  // Blocked Alg. 3 on divisible dims: total injected reduce words equal the
  // paper's beta term times P (each of Pn rounds moves (Pn-1)/Pn of the
  // partials... binomial reduce: non-roots inject W words each round).
  const Dims dims{8, 8, 8};
  const std::size_t k = 4;
  const int mode = 0;
  const std::vector<int> shape{2, 2, 1};

  mps::Runtime rt(4);
  std::vector<DistTensor> xs(4);
  rt.run([&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, shape);
    xs[static_cast<std::size_t>(comm.rank())] =
        data::make_low_rank(grid, dims, Dims{4, 4, 4}, 9, 0.0);
  });
  rt.reset_stats();
  rt.run([&](mps::Comm& comm) {
    const tensor::Matrix m = tensor::Matrix::randn(k, dims[0], 5);
    (void)dist::ttm(xs[static_cast<std::size_t>(comm.rank())], m, mode);
  });
  // Each of the Pn = 2 rounds reduces a partial block tensor of
  // (k/Pn) x (8/2) x (8/1) = 2*4*8 = 64 doubles over the 2-rank mode comm.
  // In a binomial reduce only the non-root sends (64 words); every rank is
  // the non-root in exactly one of the two rounds, so 64 words per rank.
  const double expected_per_rank = 64.0;
  for (int r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(rt.rank_stats(r).op_words(mps::OpKind::Reduce),
                     expected_per_rank)
        << "rank " << r;
  }
}

TEST(TuckerModel, SthosvdCostAccumulatesShrinkingDims) {
  const Dims dims{100, 100, 100};
  const Dims ranks{10, 10, 10};
  // Uniform extents per mode: sthosvd_cost models the symmetric kernel,
  // whose saving applies only to the 1/Pn diagonal block, so order
  // invariance needs pn equal across modes as well as equal dims.
  const std::vector<int> grid{2, 2, 2};
  const std::vector<int> natural{0, 1, 2};
  const auto total = costmodel::sthosvd_cost(dims, ranks, grid, natural);
  // First-mode Gram dominates. The symmetric kernel runs on the diagonal
  // block (Pn = 2 ring): (I1/2 + 1 + I1) * I^3 / P flops.
  const double first_gram = (1.5 * 100.0 + 1.0) * 1e6 / 8.0;
  EXPECT_GT(total.flops, first_gram);
  // Processing order matters: large-dims-last is cheaper than worst order.
  const auto reversed =
      costmodel::sthosvd_cost(dims, ranks, grid, {2, 1, 0});
  EXPECT_NEAR(total.flops, reversed.flops, 1e-6 * total.flops)
      << "symmetric dims and grid: order should not matter";
}

TEST(TuckerModel, SymmetricGramCostHalvesDiagonalFlops) {
  const Dims dims{128, 64, 64};
  // Pn = 1: the whole Gram is the diagonal block — (Jn+1)/2Jn of full.
  const std::vector<int> serial{1, 2, 2};
  const auto full = costmodel::gram_cost(dims, 0, serial, false);
  const auto sym = costmodel::gram_cost(dims, 0, serial, true);
  EXPECT_DOUBLE_EQ(full.flops, 2.0 * 128.0 * 128.0 * 64.0 * 64.0 / 4.0);
  EXPECT_DOUBLE_EQ(sym.flops, 129.0 * 128.0 * 64.0 * 64.0 / 4.0);
  EXPECT_DOUBLE_EQ(sym.words, full.words);
  EXPECT_DOUBLE_EQ(sym.messages, full.messages);
  // Pn = 2: only the diagonal block is symmetric — saving shrinks to 3/4
  // of full (up to the +1 lower-order term).
  const std::vector<int> ring{2, 2, 1};
  const auto full2 = costmodel::gram_cost(dims, 0, ring, false);
  const auto sym2 = costmodel::gram_cost(dims, 0, ring, true);
  EXPECT_LT(sym2.flops, 0.77 * full2.flops);
  EXPECT_GT(sym2.flops, 0.73 * full2.flops);
}

TEST(TuckerModel, OrderChangesCostForAsymmetricDims) {
  const Dims dims{25, 250, 250, 250};
  const Dims ranks{10, 10, 100, 100};
  const std::vector<int> grid{2, 2, 2, 2};
  const auto first_small =
      costmodel::sthosvd_cost(dims, ranks, grid, {0, 1, 2, 3});
  const auto first_big =
      costmodel::sthosvd_cost(dims, ranks, grid, {3, 2, 1, 0});
  // Paper Sec. VIII-C: the choice visibly changes flops.
  EXPECT_NE(first_small.flops, first_big.flops);
}

TEST(TuckerModel, MemoryBoundCoversMeasuredFootprint) {
  // eq. (2): 2 I/P + sum Rn In / Pn + max In^2 + max Rn In.
  const Dims dims{40, 40, 40};
  const Dims ranks{8, 8, 8};
  const std::vector<int> grid{2, 2, 1};
  const double bound = costmodel::memory_bound_per_rank(dims, ranks, grid);
  // 2 I/P = 32000; Rn In / Pn = 160 + 160 + 320; max In^2 = 1600;
  // max Rn In = 320.
  const double data = 32000.0 + 640.0 + 1600.0 + 320.0;
  EXPECT_NEAR(bound, data, 1e-9);
}

TEST(TuckerModel, MachineConvertsCostsToSeconds) {
  costmodel::Machine m;
  m.alpha = 1.0;
  m.beta = 2.0;
  m.gamma = 3.0;
  costmodel::KernelCost c;
  c.messages = 10.0;
  c.words = 100.0;
  c.flops = 1000.0;
  EXPECT_DOUBLE_EQ(m.seconds(c), 10.0 + 200.0 + 3000.0);
}

TEST(TuckerModel, TsqrCostEncodesTheRouteTradeoff) {
  // Same leading flop term as the Gram route (2 J Jn / P), but the exchange
  // moves only (Pn-1)/Pn of the local block once instead of ring-shifting
  // all of it Pn-1 times — so TSQR wins words on distributed modes...
  const Dims tall{16, 512, 512};
  const std::vector<int> grid{2, 2, 1};
  const auto tsqr = costmodel::tsqr_cost(tall, 0, grid);
  auto gram_route = costmodel::gram_cost(tall, 0, grid);
  gram_route += costmodel::evecs_cost(tall[0], 0, grid);
  EXPECT_LT(tsqr.words, gram_route.words);
  // ...while paying O(log P) extra latency for the deeper combine tree.
  EXPECT_GE(tsqr.messages, gram_route.messages);

  // The Auto predicate flips with the unfolding's aspect ratio: tiny
  // latency-bound problems stay on Gram, tall-skinny bandwidth-bound ones
  // switch to TSQR, fat unfoldings pay the Jn^3 tree and stay on Gram.
  // Note the Gram route is modeled with the packed symmetric kernel that
  // dist::gram runs, so borderline tall cases (e.g. Jn = 16 here)
  // stay on Gram — TSQR's QR flops are not halved by symmetry. The
  // decisively skinny unfolding still switches.
  EXPECT_FALSE(costmodel::prefer_tsqr(Dims{16, 8, 8}, 0, grid));
  EXPECT_TRUE(costmodel::prefer_tsqr(Dims{4, 512, 512}, 0, grid));
  EXPECT_FALSE(costmodel::prefer_tsqr(Dims{512, 16, 512}, 0, grid));
}

TEST(TuckerModel, SthosvdFlopsMatchesMeasuredSequentialRun) {
  // P = 1 run with fixed ranks: model flops == counted flops for the
  // Gram + TTM kernels (the eigensolver count uses the 10/3 n^3 estimate,
  // so compare with a tolerance dominated by it).
  const Dims dims{16, 14, 12};
  const Dims ranks{4, 4, 4};
  std::uint64_t measured = 0;
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const DistTensor x = data::make_low_rank(grid, dims, ranks, 13, 0.0);
    blas::reset_flop_count();
    core::SthosvdOptions opts;
    opts.fixed_ranks = {4, 4, 4};
    (void)core::st_hosvd(x, opts);
    measured = blas::flop_count();
  });
  const double model =
      costmodel::sthosvd_cost(dims, ranks, {1, 1, 1}, {0, 1, 2}).flops;
  EXPECT_NEAR(static_cast<double>(measured), model, 0.05 * model);
}

}  // namespace
}  // namespace ptucker
