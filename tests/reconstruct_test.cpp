#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "core/reconstruct.hpp"
#include "core/st_hosvd.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using core::TuckerTensor;
using dist::DistTensor;
using tensor::Dims;
using tensor::Tensor;
using testing::run_ranks;

/// Build a model by compressing exact low-rank data.
TuckerTensor make_model(std::shared_ptr<mps::CartGrid> grid, const Dims& dims,
                        const Dims& ranks, std::uint64_t seed) {
  const DistTensor x = data::make_low_rank(grid, dims, ranks, seed, 0.0);
  core::SthosvdOptions opts;
  opts.epsilon = 1e-8;
  return core::st_hosvd(x, opts).tucker;
}

TEST(Reconstruct, FullReconstructionMatchesData) {
  // The second input's core has mode-0 extent 1 on a mode with 2 ranks, so
  // one rank's core block is empty when the expanding TTM runs on mode 0.
  struct Case {
    Dims ranks;
    bool fixed;  // compress to exactly these ranks, not by epsilon
  };
  for (const Case& c : {Case{Dims{3, 2, 4}, false},
                        Case{Dims{1, 2, 4}, true}}) {
    run_ranks(4, [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, {2, 2, 1});
      const Dims dims{9, 8, 7};
      const DistTensor x = data::make_low_rank(grid, dims, c.ranks, 3, 0.0);
      core::SthosvdOptions opts;
      opts.epsilon = 1e-8;
      if (c.fixed) opts.fixed_ranks = c.ranks;
      const TuckerTensor model = core::st_hosvd(x, opts).tucker;
      const DistTensor xt = core::reconstruct(model);
      EXPECT_EQ(xt.global_dims(), dims);
      EXPECT_LT(core::normalized_error(x, xt), 1e-9)
          << "ranks " << c.ranks[0] << "x" << c.ranks[1] << "x" << c.ranks[2];
    });
  }
}

TEST(Reconstruct, SubtensorMatchesSliceOfFullReconstruction) {
  run_ranks(4, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const Dims dims{10, 8, 6};
    const TuckerTensor model = make_model(grid, dims, Dims{3, 3, 2}, 5);
    const DistTensor full = core::reconstruct(model);
    const Tensor full_global = full.gather(0);

    // Arbitrary per-mode index subsets (out of order, with repeats allowed
    // in principle — here unique, mimicking "a few time steps").
    const std::vector<std::vector<std::size_t>> sets = {
        {7, 1, 3}, {0, 5}, {2, 3, 4}};
    const DistTensor part = core::reconstruct_subtensor(model, sets);
    const Tensor part_global = part.gather(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(part_global.dims(), (Dims{3, 2, 3}));
      for (std::size_t a = 0; a < 3; ++a) {
        for (std::size_t b = 0; b < 2; ++b) {
          for (std::size_t c = 0; c < 3; ++c) {
            const std::size_t sub_idx[] = {a, b, c};
            const std::size_t full_idx[] = {sets[0][a], sets[1][b],
                                            sets[2][c]};
            EXPECT_NEAR(part_global.at(sub_idx), full_global.at(full_idx),
                        1e-10);
          }
        }
      }
    }
  });
}

TEST(Reconstruct, EmptySelectionMeansAllIndices) {
  run_ranks(2, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    const Dims dims{6, 5, 4};
    const TuckerTensor model = make_model(grid, dims, Dims{2, 2, 2}, 7);
    const std::vector<std::vector<std::size_t>> sets = {{}, {1, 2}, {}};
    const DistTensor part = core::reconstruct_subtensor(model, sets);
    EXPECT_EQ(part.global_dims(), (Dims{6, 2, 4}));
  });
}

TEST(Reconstruct, RangeOverloadMatchesIndexSets) {
  run_ranks(2, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 2, 1});
    const Dims dims{8, 6, 5};
    const TuckerTensor model = make_model(grid, dims, Dims{3, 2, 2}, 9);
    const DistTensor by_range = core::reconstruct_range(
        model, {util::Range{2, 5}, util::Range{0, 6}, util::Range{4, 5}});
    const std::vector<std::vector<std::size_t>> sets = {
        {2, 3, 4}, {0, 1, 2, 3, 4, 5}, {4}};
    const DistTensor by_sets = core::reconstruct_subtensor(model, sets);
    const Tensor a = by_range.gather(0);
    const Tensor b = by_sets.gather(0);
    if (comm.rank() == 0) {
      EXPECT_EQ(testing::max_diff(a, b), 0.0);
    }
  });
}

TEST(Reconstruct, SingleSpeciesExtraction) {
  // The paper's motivating use case: reconstruct one variable without
  // forming the whole tensor.
  run_ranks(4, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 2, 1});
    const Dims dims{8, 6, 4, 5};  // (x, y, species, time)
    const TuckerTensor model = make_model(grid, dims, Dims{3, 2, 2, 2}, 11);
    const std::vector<std::vector<std::size_t>> sets = {{}, {}, {2}, {}};
    const DistTensor one_species = core::reconstruct_subtensor(model, sets);
    EXPECT_EQ(one_species.global_dims(), (Dims{8, 6, 1, 5}));
    // Compare against the full reconstruction slice.
    const DistTensor full = core::reconstruct(model);
    const Tensor fg = full.gather(0);
    const Tensor sg = one_species.gather(0);
    if (comm.rank() == 0) {
      const Tensor slice = fg.subtensor(
          {util::Range{0, 8}, util::Range{0, 6}, util::Range{2, 3},
           util::Range{0, 5}});
      EXPECT_LT(testing::max_diff(slice, sg), 1e-10);
    }
  });
}

TEST(Reconstruct, PartialCostsLessCommunicationThanFull) {
  mps::Runtime rt(4);
  std::vector<TuckerTensor> models(4);
  rt.run([&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    models[static_cast<std::size_t>(comm.rank())] =
        make_model(grid, Dims{12, 12, 8}, Dims{3, 3, 3}, 13);
  });
  rt.reset_stats();
  rt.run([&](mps::Comm& comm) {
    (void)core::reconstruct(models[static_cast<std::size_t>(comm.rank())]);
  });
  const double full_words = rt.total_stats().words_sent();
  rt.reset_stats();
  rt.run([&](mps::Comm& comm) {
    const std::vector<std::vector<std::size_t>> sets = {{0}, {1}, {}};
    (void)core::reconstruct_subtensor(
        models[static_cast<std::size_t>(comm.rank())], sets);
  });
  const double partial_words = rt.total_stats().words_sent();
  EXPECT_LT(partial_words, full_words);
}

TEST(Reconstruct, RejectsWrongNumberOfIndexSets) {
  run_ranks(1, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const TuckerTensor model =
        make_model(grid, Dims{4, 4, 4}, Dims{2, 2, 2}, 15);
    const std::vector<std::vector<std::size_t>> sets = {{0}, {1}};  // only 2
    EXPECT_THROW((void)core::reconstruct_subtensor(model, sets),
                 InvalidArgument);
  });
}

}  // namespace
}  // namespace ptucker
