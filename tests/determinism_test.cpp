#include <gtest/gtest.h>

#include <vector>

#include "blas/blas.hpp"
#include "core/st_hosvd.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "obs/registry.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using dist::DistTensor;
using tensor::Dims;
using tensor::Tensor;
using testing::run_ranks;

/// Total fan-out of the threaded engine so far: it grows only when a call
/// actually forks, so a threaded case that leaves it unchanged never ran the
/// code whose bits it claims to compare.
std::uint64_t pool_parts() {
  return obs::registry().counter("blas.pool.parts").value();
}

/// A run's flattened model plus how many engine parts it forked.
struct Bits {
  std::vector<double> values;
  std::uint64_t forked_parts = 0;
};

/// One full ST-HOSVD under the given thread count and factor route; returns
/// the core and factors flattened for bitwise comparison. Sizes are chosen so
/// the route's mode-0 kernels cross both threading thresholds of
/// blas/kernel_core.hpp and the threaded engine actually engages: the Gram
/// (136^2 * 2304 ≈ 43 MF in the halved syrk model, 4.7 MF per KC slab) and,
/// on the randomized route's wider input, the sketch's projecting TTMs
/// (2 * 16 * 136 * 5184 ≈ 23 MF, width 16).
Bits sthosvd_bits(int threads,
                  core::FactorMethod method = core::FactorMethod::GramEig,
                  const Dims& dims = Dims{136, 48, 48}) {
  blas::set_gemm_threads(threads);
  const std::uint64_t parts_before = pool_parts();
  Bits bits;
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const DistTensor x =
        data::make_low_rank(grid, dims, Dims{8, 8, 8}, 5, 0.01);
    core::SthosvdOptions opts;
    opts.fixed_ranks = {8, 8, 8};
    opts.factor_method = method;
    const auto result = core::st_hosvd(x, opts);
    const Tensor core = result.tucker.core.gather(0);
    if (comm.rank() == 0) {
      bits.values.insert(bits.values.end(), core.data(),
                         core.data() + core.size());
      for (const auto& u : result.tucker.factors) {
        bits.values.insert(bits.values.end(), u.data(), u.data() + u.size());
      }
    }
  });
  bits.forked_parts = pool_parts() - parts_before;
  blas::set_gemm_threads(1);
  return bits;
}

/// Every threaded run forked the engine, and all runs match the 1-thread
/// run to the last bit.
void expect_bit_identical(const Bits& t1, const Bits& t2, const Bits& t4) {
  EXPECT_GT(t2.forked_parts, 0u) << "threads=2 never forked the engine";
  EXPECT_GT(t4.forked_parts, 0u) << "threads=4 never forked the engine";
  ASSERT_EQ(t1.values.size(), t2.values.size());
  ASSERT_EQ(t1.values.size(), t4.values.size());
  ASSERT_FALSE(t1.values.empty());
  EXPECT_EQ(testing::max_diff(t1.values.data(), t2.values.data(),
                              t1.values.size()),
            0.0)
      << "threads=2 changed bits";
  EXPECT_EQ(testing::max_diff(t1.values.data(), t4.values.data(),
                              t1.values.size()),
            0.0)
      << "threads=4 changed bits";
}

TEST(Determinism, TuckerCoreBitIdenticalAcrossGemmThreads) {
  // Intra-kernel threading partitions tile *ownership*, never the
  // per-element accumulation order: the compressed model must be the same
  // to the last bit for any gemm_threads setting.
  expect_bit_identical(sthosvd_bits(1), sthosvd_bits(2), sthosvd_bits(4));
}

TEST(Determinism, RandomizedRouteBitIdenticalAcrossGemmThreads) {
  // The counter-based test matrix is indexed by global position and the
  // batched kernels never change accumulation order with the thread count,
  // so the sketched model is bit-identical for any gemm_threads setting.
  const auto method = core::FactorMethod::Randomized;
  const Dims dims{136, 72, 72};
  expect_bit_identical(sthosvd_bits(1, method, dims),
                       sthosvd_bits(2, method, dims),
                       sthosvd_bits(4, method, dims));
}

TEST(Determinism, RandomizedFactorsIdenticalAcrossGrids) {
  // The sketch subspace is a function of the mode alone — Omega is
  // evaluated from global indices — so a 1-rank and a 4-rank run produce
  // the same factors. Across grids the partial sums meet
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
  // Each rank's mode-0 Gram block (160^2 * 36^2 ≈ 33 MF, 5.5 MF per KC
  // slab) crosses the threading thresholds.
  auto run_grid = [](int threads) {
    blas::set_gemm_threads(threads);
    const std::uint64_t parts_before = pool_parts();
    Bits bits;
    run_ranks(4, [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, {1, 2, 2});
      const DistTensor x =
          data::make_low_rank(grid, Dims{160, 72, 72}, Dims{6, 6, 6}, 9, 0.02);
      core::SthosvdOptions opts;
      opts.fixed_ranks = {6, 6, 6};
      const auto result = core::st_hosvd(x, opts);
      const Tensor core = result.tucker.core.gather(0);
      if (comm.rank() == 0) {
        bits.values.assign(core.data(), core.data() + core.size());
      }
    });
    bits.forked_parts = pool_parts() - parts_before;
    blas::set_gemm_threads(1);
    return bits;
  };
  const auto t1 = run_grid(1);
  const auto t4 = run_grid(4);
  EXPECT_GT(t4.forked_parts, 0u) << "threads=4 never forked the engine";
  ASSERT_EQ(t1.values.size(), t4.values.size());
  ASSERT_FALSE(t1.values.empty());
  EXPECT_EQ(testing::max_diff(t1.values.data(), t4.values.data(),
                              t1.values.size()),
            0.0);
}

}  // namespace
}  // namespace ptucker
