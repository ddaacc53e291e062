#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/metrics.hpp"
#include "core/reconstruct.hpp"
#include "core/st_hosvd.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "obs/trace.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using core::SthosvdOptions;
using dist::DistTensor;
using tensor::Dims;
using tensor::Tensor;
using testing::run_ranks;

int grid_size(const std::vector<int>& shape) {
  int p = 1;
  for (int e : shape) p *= e;
  return p;
}

class SthosvdGrids : public ::testing::TestWithParam<std::vector<int>> {};

INSTANTIATE_TEST_SUITE_P(
    Grids, SthosvdGrids,
    ::testing::Values(std::vector<int>{1, 1, 1}, std::vector<int>{2, 1, 1},
                      std::vector<int>{2, 2, 1}, std::vector<int>{2, 2, 2},
                      std::vector<int>{1, 3, 2}, std::vector<int>{4, 2, 1}),
    [](const auto& info) { return testing::shape_name(info.param); });

TEST_P(SthosvdGrids, RecoversExactLowRankTensor) {
  const auto& shape = GetParam();
  const Dims dims{10, 9, 8};
  const Dims ranks{3, 4, 2};
  run_ranks(grid_size(shape), [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, shape);
    const DistTensor x = data::make_low_rank(grid, dims, ranks, 7, 0.0);
    SthosvdOptions opts;
    // eps = 1e-6 keeps the tail threshold comfortably above the ~1e-15
    // relative eigenvalue noise floor of an exactly low-rank Gram matrix.
    opts.epsilon = 1e-6;
    const auto result = core::st_hosvd(x, opts);
    // Exact multilinear ranks detected.
    EXPECT_EQ(result.tucker.core_dims(), ranks);
    // Reconstruction error at numerical noise level.
    const DistTensor xt = core::reconstruct(result.tucker);
    EXPECT_LT(core::normalized_error(x, xt), 1e-6);
  });
}

// Every factor route certifies eq. 3 on every grid without downgrading to
// another route, on a tiny tensor and on a larger one with a deeper tail.
TEST_P(SthosvdGrids, ErrorBoundHolds) {
  const auto& shape = GetParam();
  const struct {
    Dims dims;
    Dims ranks;
    std::uint64_t seed;
    double noise;
    double eps;  ///< loose target so truncation actually happens
  } problems[] = {{{9, 8, 7}, {3, 3, 3}, 13, 0.05, 0.2},
                  {{48, 24, 20}, {6, 5, 4}, 11, 0.005, 0.15}};
  for (const auto& pb : problems) {
    for (const auto method :
         {core::FactorMethod::GramEig, core::FactorMethod::TsqrSvd,
          core::FactorMethod::Randomized}) {
      SCOPED_TRACE(::testing::Message()
                   << "dims " << pb.dims[0] << "x" << pb.dims[1] << "x"
                   << pb.dims[2] << ", factor method "
                   << static_cast<int>(method));
      run_ranks(grid_size(shape), [&](mps::Comm& comm) {
        auto grid = dist::make_grid(comm, shape);
        const DistTensor x =
            data::make_low_rank(grid, pb.dims, pb.ranks, pb.seed, pb.noise);
        SthosvdOptions opts;
        opts.epsilon = pb.eps;
        opts.factor_method = method;
        const auto result = core::st_hosvd(x, opts);
        EXPECT_TRUE(result.downgrades.empty());
        EXPECT_LE(result.error_bound, pb.eps);
        const DistTensor xt = core::reconstruct(result.tucker);
        const double err = core::normalized_error(x, xt);
        // Paper eq. (3): ‖X − X̃‖ <= eps ‖X‖ — with slack for fp rounding.
        EXPECT_LE(err, pb.eps * 1.0000001);
        // And the a-priori bound from the truncated tails dominates the
        // error.
        EXPECT_LE(err, result.error_bound + 1e-9);
      });
    }
  }
}

TEST(Sthosvd, ErrorIsIndependentOfProcessorGrid) {
  const Dims dims{8, 8, 8};
  const Dims ranks{3, 3, 3};
  const double eps = 0.3;
  std::vector<double> errors;
  for (const auto& shape : {std::vector<int>{1, 1, 1},
                            std::vector<int>{2, 2, 2},
                            std::vector<int>{4, 1, 2}}) {
    double err = 0.0;
    run_ranks(grid_size(shape), [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, shape);
      const DistTensor x = data::make_low_rank(grid, dims, ranks, 3, 0.1);
      SthosvdOptions opts;
      opts.epsilon = eps;
      const auto result = core::st_hosvd(x, opts);
      const DistTensor xt = core::reconstruct(result.tucker);
      const double e = core::normalized_error(x, xt);
      if (comm.rank() == 0) err = e;
    });
    errors.push_back(err);
  }
  EXPECT_NEAR(errors[0], errors[1], 1e-8);
  EXPECT_NEAR(errors[0], errors[2], 1e-8);
}

TEST(Sthosvd, FixedRanksAreRespected) {
  run_ranks(4, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 8, 6}, Dims{4, 4, 3}, 5, 0.2);
    SthosvdOptions opts;
    opts.fixed_ranks = {2, 3, 2};
    const auto result = core::st_hosvd(x, opts);
    EXPECT_EQ(result.tucker.core_dims(), (Dims{2, 3, 2}));
    for (int n = 0; n < 3; ++n) {
      EXPECT_EQ(result.tucker.factors[static_cast<std::size_t>(n)].cols(),
                opts.fixed_ranks[static_cast<std::size_t>(n)]);
    }
  });
}

TEST(Sthosvd, FactorsAreOrthonormal) {
  run_ranks(4, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 7, 6}, Dims{3, 3, 3}, 9, 0.1);
    const auto result = core::st_hosvd(x, SthosvdOptions{});
    for (const auto& u : result.tucker.factors) {
      EXPECT_LT(testing::orthonormality_defect(u), 1e-9);
    }
  });
}

TEST(Sthosvd, CoreNormPlusErrorAccountsForFullNorm) {
  // ‖X‖² = ‖G‖² + ‖X − X̃‖² for orthonormal factors (Pythagoras).
  run_ranks(4, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 8, 8}, Dims{3, 3, 3}, 11, 0.15);
    SthosvdOptions opts;
    opts.epsilon = 0.25;
    const auto result = core::st_hosvd(x, opts);
    const DistTensor xt = core::reconstruct(result.tucker);
    const double norm_x_sq = x.norm_squared();
    const double core_sq = result.tucker.core.norm_squared();
    const double err = core::normalized_error(x, xt);
    EXPECT_NEAR(core_sq + err * err * norm_x_sq, norm_x_sq,
                1e-8 * norm_x_sq);
  });
}

TEST(Sthosvd, ModeOrderDoesNotChangeErrorGuarantee) {
  const Dims dims{8, 6, 7};
  const double eps = 0.3;
  for (const std::vector<int>& order :
       {std::vector<int>{}, std::vector<int>{2, 0, 1},
        std::vector<int>{1, 2, 0}, std::vector<int>{2, 1, 0}}) {
    run_ranks(4, [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, {2, 2, 1});
      const DistTensor x =
          data::make_low_rank(grid, dims, Dims{3, 2, 3}, 21, 0.1);
      SthosvdOptions opts;
      opts.epsilon = eps;
      opts.mode_order = order;
      const auto result = core::st_hosvd(x, opts);
      const DistTensor xt = core::reconstruct(result.tucker);
      EXPECT_LE(core::normalized_error(x, xt), eps * 1.0000001);
    });
  }
}

TEST(Sthosvd, CustomModeOrderIsUsed) {
  run_ranks(2, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{6, 6, 6}, Dims{2, 2, 2}, 1, 0.05);
    SthosvdOptions opts;
    opts.mode_order = {2, 0, 1};
    const auto result = core::st_hosvd(x, opts);
    EXPECT_EQ(result.mode_order_used, (std::vector<int>{2, 0, 1}));
  });
}

TEST(Sthosvd, SpectraHaveFullLengthPerMode) {
  run_ranks(2, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{7, 6, 5}, Dims{3, 3, 3}, 2, 0.1);
    const auto result = core::st_hosvd(x, SthosvdOptions{});
    ASSERT_EQ(result.mode_eigenvalues.size(), 3u);
    EXPECT_EQ(result.mode_eigenvalues[0].size(), 7u);
    EXPECT_EQ(result.mode_eigenvalues[1].size(), 6u);
    EXPECT_EQ(result.mode_eigenvalues[2].size(), 5u);
  });
}

TEST(Sthosvd, EpsilonZeroKeepsEverything) {
  run_ranks(2, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{5, 4, 3}, Dims{5, 4, 3}, 3, 0.3);
    SthosvdOptions opts;
    opts.epsilon = 0.0;
    const auto result = core::st_hosvd(x, opts);
    // Full-rank data with eps = 0: nothing may be truncated.
    EXPECT_EQ(result.tucker.core_dims(), (Dims{5, 4, 3}));
    const dist::DistTensor xt = core::reconstruct(result.tucker);
    EXPECT_LT(core::normalized_error(x, xt), 1e-9);
  });
}

TEST(Sthosvd, TuckerCompressionAccountants) {
  run_ranks(1, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{10, 10, 10}, Dims{2, 2, 2}, 4, 0.0);
    const auto result = core::st_hosvd(x, SthosvdOptions{});
    const auto& t = result.tucker;
    EXPECT_EQ(t.original_elements(), 1000u);
    EXPECT_EQ(t.compressed_elements(), 8u + 3u * 20u);
    EXPECT_NEAR(t.compression_ratio(), 1000.0 / 68.0, 1e-12);
    EXPECT_NEAR(core::compression_ratio(Dims{10, 10, 10}, Dims{2, 2, 2}),
                t.compression_ratio(), 1e-12);
  });
}

TEST(Sthosvd, FourWayTensor) {
  run_ranks(8, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 2, 1});
    const DistTensor x = data::make_low_rank(grid, Dims{6, 6, 6, 5},
                                             Dims{2, 3, 2, 2}, 17, 0.0);
    SthosvdOptions opts;
    opts.epsilon = 1e-6;
    const auto result = core::st_hosvd(x, opts);
    EXPECT_EQ(result.tucker.core_dims(), (Dims{2, 3, 2, 2}));
    const DistTensor xt = core::reconstruct(result.tucker);
    EXPECT_LT(core::normalized_error(x, xt), 1e-6);
  });
}

// st_hosvd's spans are the only per-kernel timing record, and benches read
// them by name: a renamed, re-nested or re-argumented span must fail here.
TEST(Sthosvd, SpansRecordEveryKernelPerRankAndMode) {
  struct Route {
    core::FactorMethod method;
    std::multiset<std::string> kernels;  ///< children of each mode span
  };
  const Route routes[] = {
      {core::FactorMethod::GramEig, {"Gram", "Evecs", "TTM"}},
      {core::FactorMethod::TsqrSvd, {"TSQR", "TTM"}},
      {core::FactorMethod::Randomized, {"Sketch", "TTM"}},
  };
  const Dims dims{12, 9, 8};
  const Dims ranks{3, 3, 2};
  const int p = 2;
  for (const Route& route : routes) {
    SCOPED_TRACE(::testing::Message()
                 << "factor method " << static_cast<int>(route.method));
    obs::TraceSession::start();
    run_ranks(p, [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, {2, 1, 1});
      const DistTensor x = data::make_low_rank(grid, dims, ranks, 5, 0.01);
      SthosvdOptions opts;
      opts.fixed_ranks = ranks;
      opts.factor_method = route.method;
      EXPECT_TRUE(core::st_hosvd(x, opts).downgrades.empty());
    });
    obs::TraceSession::stop();
    ASSERT_EQ(obs::TraceSession::dropped(), 0u);
    const std::vector<obs::TraceEvent> events = obs::TraceSession::events();
    const auto contains = [](const obs::TraceEvent& outer,
                             const obs::TraceEvent& inner) {
      return inner.ts_ns >= outer.ts_ns &&
             inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns;
    };
    for (int rank = 0; rank < p; ++rank) {
      for (int mode = 0; mode < static_cast<int>(dims.size()); ++mode) {
        std::vector<obs::TraceEvent> mode_spans;
        for (const obs::TraceEvent& e : events) {
          if (e.rank == rank && std::string(e.name) == "st_hosvd.mode" &&
              e.arg == mode) {
            mode_spans.push_back(e);
          }
        }
        ASSERT_EQ(mode_spans.size(), 1u) << "rank " << rank << " mode "
                                         << mode;
        const obs::TraceEvent& parent = mode_spans.front();
        std::multiset<std::string> children;
        for (const obs::TraceEvent& e : events) {
          if (e.rank != rank || std::string(e.name) == "st_hosvd.mode") {
            continue;
          }
          if (e.arg == mode) {
            EXPECT_TRUE(contains(parent, e))
                << e.name << " of mode " << mode << " outside its mode span";
          }
          if (contains(parent, e)) {
            EXPECT_EQ(e.arg, mode) << e.name << " inside mode " << mode;
            children.insert(e.name);
          }
        }
        EXPECT_EQ(children, route.kernels)
            << "rank " << rank << " mode " << mode;
      }
    }
  }
}

}  // namespace
}  // namespace ptucker
