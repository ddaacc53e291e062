#include <gtest/gtest.h>

#include <vector>

#include "blas/blas.hpp"
#include "core/st_hosvd.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using dist::DistTensor;
using tensor::Dims;
using tensor::Tensor;
using testing::run_ranks;

/// One full ST-HOSVD under the given thread count and factor route; returns
/// the core and factors flattened for bitwise comparison. Sizes are chosen so
/// the mode-0 Gram (136^2 * 2304 ≈ 43 MF in the halved syrk model, 4.7 MF
/// per KC slab) crosses both threading thresholds of blas/kernel_core.hpp
/// and the threaded engine actually engages.
std::vector<double> sthosvd_bits(
    int threads, core::FactorMethod method = core::FactorMethod::GramEig) {
  blas::set_gemm_threads(threads);
  std::vector<double> bits;
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{136, 48, 48}, Dims{8, 8, 8}, 5, 0.01);
    core::SthosvdOptions opts;
    opts.fixed_ranks = {8, 8, 8};
    opts.factor_method = method;
    const auto result = core::st_hosvd(x, opts);
    const Tensor core = result.tucker.core.gather(0);
    if (comm.rank() == 0) {
      bits.insert(bits.end(), core.data(), core.data() + core.size());
      for (const auto& u : result.tucker.factors) {
        bits.insert(bits.end(), u.data(), u.data() + u.size());
      }
    }
  });
  blas::set_gemm_threads(1);
  return bits;
}

TEST(Determinism, TuckerCoreBitIdenticalAcrossGemmThreads) {
  // Intra-kernel threading partitions tile *ownership*, never the
  // per-element accumulation order: the compressed model must be the same
  // to the last bit for any gemm_threads setting.
  const auto t1 = sthosvd_bits(1);
  const auto t2 = sthosvd_bits(2);
  const auto t4 = sthosvd_bits(4);
  ASSERT_EQ(t1.size(), t2.size());
  ASSERT_EQ(t1.size(), t4.size());
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(testing::max_diff(t1.data(), t2.data(), t1.size()), 0.0)
      << "threads=2 changed bits";
  EXPECT_EQ(testing::max_diff(t1.data(), t4.data(), t1.size()), 0.0)
      << "threads=4 changed bits";
}

TEST(Determinism, RandomizedRouteBitIdenticalAcrossGemmThreads) {
  // The counter-based test matrix is indexed by global position and the
  // batched kernels never change accumulation order with the thread count,
  // so the sketched model is bit-identical for any gemm_threads setting.
  const auto t1 = sthosvd_bits(1, core::FactorMethod::Randomized);
  const auto t2 = sthosvd_bits(2, core::FactorMethod::Randomized);
  const auto t4 = sthosvd_bits(4, core::FactorMethod::Randomized);
  ASSERT_EQ(t1.size(), t2.size());
  ASSERT_EQ(t1.size(), t4.size());
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(testing::max_diff(t1.data(), t2.data(), t1.size()), 0.0)
      << "threads=2 changed bits";
  EXPECT_EQ(testing::max_diff(t1.data(), t4.data(), t1.size()), 0.0)
      << "threads=4 changed bits";
}

TEST(Determinism, RandomizedFactorsIdenticalAcrossGrids) {
  // The sketch subspace is a function of (seed, mode) alone — Omega is
  // evaluated from global indices — so a 1-rank and a 4-rank run at the
  // same seed produce the same factors. Across grids the partial sums meet
  // in a different association order, so identity is to collective-roundoff
  // tolerance, not bitwise (the cross-grid precedent of the TSQR tests).
  const Dims dims{32, 24, 20};
  const Dims ranks{5, 4, 4};
  auto factors_on = [&](int p, std::vector<int> shape) {
    std::vector<std::vector<double>> factors;
    run_ranks(p, [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, shape);
      const DistTensor x = data::make_low_rank(grid, dims, ranks, 31, 0.02);
      core::SthosvdOptions opts;
      opts.fixed_ranks = ranks;
      opts.factor_method = core::FactorMethod::Randomized;
      opts.sketch.seed = 0xfeed;
      const auto result = core::st_hosvd(x, opts);
      if (comm.rank() == 0) {
        for (const auto& u : result.tucker.factors) {
          factors.emplace_back(u.data(), u.data() + u.size());
        }
      }
    });
    return factors;
  };
  const auto single = factors_on(1, {1, 1, 1});
  const auto quad = factors_on(4, {2, 2, 1});
  ASSERT_EQ(single.size(), quad.size());
  for (std::size_t n = 0; n < single.size(); ++n) {
    ASSERT_EQ(single[n].size(), quad[n].size()) << "mode " << n;
    EXPECT_LT(testing::max_diff(single[n].data(), quad[n].data(),
                                single[n].size()),
              1e-8)
        << "mode " << n << " factor differs across grids";
  }
}

TEST(Determinism, DistributedRunBitIdenticalAcrossThreads) {
  // Same property on a 2x2 grid with real communication: the collectives
  // are deterministic, so any difference would come from the local kernels.
  auto run_grid = [](int threads) {
    blas::set_gemm_threads(threads);
    std::vector<double> bits;
    run_ranks(4, [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, {1, 2, 2});
      const DistTensor x =
          data::make_low_rank(grid, Dims{40, 40, 40}, Dims{6, 6, 6}, 9, 0.02);
      core::SthosvdOptions opts;
      opts.fixed_ranks = {6, 6, 6};
      const auto result = core::st_hosvd(x, opts);
      const Tensor core = result.tucker.core.gather(0);
      if (comm.rank() == 0) {
        bits.assign(core.data(), core.data() + core.size());
      }
    });
    blas::set_gemm_threads(1);
    return bits;
  };
  const auto t1 = run_grid(1);
  const auto t4 = run_grid(4);
  ASSERT_EQ(t1.size(), t4.size());
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(testing::max_diff(t1.data(), t4.data(), t1.size()), 0.0);
}

}  // namespace
}  // namespace ptucker
