#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/reconstruct.hpp"
#include "core/seq/seq_tucker.hpp"
#include "core/st_hosvd.hpp"
#include "core/streaming.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "serve/query_server.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using core::TuckerTensor;
using dist::DistTensor;
using tensor::Dims;
using tensor::Tensor;
using testing::run_ranks;

TuckerTensor make_model(std::shared_ptr<mps::CartGrid> grid, const Dims& dims,
                        const Dims& ranks, std::uint64_t seed) {
  const DistTensor x = data::make_low_rank(grid, dims, ranks, seed, 0.05);
  core::SthosvdOptions opts;
  opts.epsilon = 1e-3;
  return core::st_hosvd(x, opts).tucker;
}

/// The box \p ranges of the model held as a local \p core and \p factors.
Tensor box(const Tensor& core, const std::vector<tensor::Matrix>& factors,
           const std::vector<util::Range>& ranges) {
  return core::reconstruct_range_local(
      core, std::span<const tensor::Matrix>(factors), ranges);
}

// The point and fiber queries the serve layer answers are boxes of
// core::reconstruct_range_local: an element is a one-wide box, a fiber a
// box that spans one mode.
TEST(Query, ElementMatchesReconstruction) {
  run_ranks(4, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const Dims dims{9, 8, 7};
    const TuckerTensor model = make_model(grid, dims, Dims{3, 3, 2}, 3);
    const Tensor core = model.core.gather(0);
    const Tensor full = core::reconstruct(model).gather(0);
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < 9; i += 2) {
        for (std::size_t j = 0; j < 8; j += 3) {
          for (std::size_t k = 0; k < 7; k += 2) {
            const Tensor got =
                box(core, model.factors, {{i, i + 1}, {j, j + 1}, {k, k + 1}});
            ASSERT_EQ(got.dims(), (Dims{1, 1, 1}));
            const std::size_t idx[] = {i, j, k};
            EXPECT_NEAR(got[0], full.at(idx), 1e-11)
                << "(" << i << "," << j << "," << k << ")";
          }
        }
      }
    }
  });
}

TEST(Query, FiberMatchesReconstructionColumn) {
  run_ranks(4, [](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const Dims dims{9, 8, 7};
    const TuckerTensor model = make_model(grid, dims, Dims{3, 3, 2}, 3);
    const Tensor core = model.core.gather(0);
    const Tensor full = core::reconstruct(model).gather(0);
    if (comm.rank() == 0) {
      for (int mode = 0; mode < 3; ++mode) {
        const auto um = static_cast<std::size_t>(mode);
        std::size_t probe[] = {2, 4, 1};
        std::vector<util::Range> ranges{{2, 3}, {4, 5}, {1, 2}};
        ranges[um] = {0, dims[um]};
        const Tensor fiber = box(core, model.factors, ranges);
        ASSERT_EQ(fiber.size(), dims[um]);
        for (std::size_t i = 0; i < fiber.size(); ++i) {
          probe[um] = i;
          EXPECT_NEAR(fiber[i], full.at(probe), 1e-11)
              << "mode " << mode << " position " << i;
        }
      }
    }
  });
}

TEST(Query, LocalModelMatchesData) {
  const Tensor x = data::make_low_rank_seq(Dims{8, 8, 8}, Dims{2, 2, 2}, 9);
  core::seq::SeqOptions opts;
  opts.epsilon = 1e-6;
  const auto result = core::seq::seq_st_hosvd(x, opts);
  const Tensor got =
      box(result.tucker.core, result.tucker.factors, {{3, 4}, {5, 6}, {2, 3}});
  const std::size_t idx[] = {3, 5, 2};
  EXPECT_NEAR(got[0], x.at(idx), 1e-8);
}

TEST(Query, RejectsOutOfRangeAndEmptyRanges) {
  const Tensor x = data::make_low_rank_seq(Dims{6, 5}, Dims{2, 2}, 11);
  const auto result = core::seq::seq_st_hosvd(x, {});
  const Tensor& core = result.tucker.core;
  const auto& factors = result.tucker.factors;
  EXPECT_THROW((void)box(core, factors, {{6, 7}, {0, 1}}), InvalidArgument);
  EXPECT_THROW((void)box(core, factors, {{0, 7}, {0, 1}}), InvalidArgument);
  EXPECT_THROW((void)box(core, factors, {{2, 3}, {0, 6}}), InvalidArgument);
  EXPECT_THROW((void)box(core, factors, {{2, 2}, {0, 1}}), InvalidArgument);
  EXPECT_THROW((void)box(core, factors, {{3, 2}, {0, 1}}), InvalidArgument);
  EXPECT_NO_THROW((void)box(core, factors, {{5, 6}, {4, 5}}));
}

TEST(Query, RejectsWrongRangeCount) {
  const Tensor x = data::make_low_rank_seq(Dims{6, 6}, Dims{2, 2}, 13);
  const auto result = core::seq::seq_st_hosvd(x, {});
  const Tensor& core = result.tucker.core;
  const auto& factors = result.tucker.factors;
  EXPECT_THROW((void)box(core, factors, {{3, 4}}), InvalidArgument);
  EXPECT_THROW((void)box(core, factors, {{3, 4}, {3, 4}, {3, 4}}),
               InvalidArgument);
}

TEST(Query, RejectsFactorCoreRankMismatch) {
  const Tensor x = data::make_low_rank_seq(Dims{6, 5}, Dims{2, 2}, 17);
  core::seq::SeqOptions opts;
  opts.fixed_ranks = {2, 2};
  const auto result = core::seq::seq_st_hosvd(x, opts);
  const std::vector<util::Range> ranges{{0, 1}, {0, 1}};
  // A factor with one column too many for the core's mode-1 extent.
  std::vector<tensor::Matrix> factors = result.tucker.factors;
  factors[1] = tensor::Matrix(5, 3);
  EXPECT_THROW((void)box(result.tucker.core, factors, ranges),
               InvalidArgument);
  // One factor too few for the order-2 core.
  factors = {result.tucker.factors[0]};
  EXPECT_THROW((void)box(result.tucker.core, factors, {{0, 1}}),
               InvalidArgument);
}

/// Archive fixture for the time-range query tests: two 2-step windows of
/// a low-rank field, no normalization (exact shapes are what matters).
std::string make_time_archive(const char* name, const Dims& step_dims,
                              std::size_t windows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  run_ranks(2, [&](mps::Comm& comm) {
    std::vector<int> shape(step_dims.size() + 1, 1);
    shape[0] = 2;
    auto grid = dist::make_grid(comm, shape);
    pario::archive_create(path, comm, step_dims, -1, 8);
    for (std::size_t w = 0; w < windows; ++w) {
      Dims dims = step_dims;
      dims.push_back(2);
      const DistTensor x = data::make_low_rank(
          grid, dims, Dims(dims.size(), 2), 41 + w, 0.0);
      core::SthosvdOptions opts;
      opts.epsilon = 1e-6;
      const auto result = core::st_hosvd(x, opts);
      pario::archive_append_model(
          path, 2 * w, 1e-6, result.tucker.core,
          std::span<const tensor::Matrix>(result.tucker.factors));
    }
  });
  return path;
}

TEST(TimeRangeQuery, OutOfRangeStepsThrow) {
  const Dims step_dims{5, 4, 3};
  const std::string path =
      make_time_archive("ptucker_trq_oob.pta", step_dims, 2);
  serve::ServerOptions opts;
  opts.executor_threads = 0;
  const serve::QueryServer server({path}, opts);
  EXPECT_EQ(server.num_steps(0), 4u);
  // Past the archived end, through every route.
  EXPECT_THROW((void)server.time_range(0, 2, 5), InvalidArgument);
  EXPECT_THROW((void)server.time_range(0, 4, 5), InvalidArgument);
  const std::size_t idx[] = {0, 0, 0};
  EXPECT_THROW((void)server.element(0, 4, idx), InvalidArgument);
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1, 1});
    const core::StreamingReconstructor recon(path);
    EXPECT_THROW((void)recon.reconstruct_steps(grid, 2, 5),
                 InvalidArgument);
  });
  std::filesystem::remove(path);
}

TEST(TimeRangeQuery, InvertedAndEmptyRangesThrow) {
  const Dims step_dims{5, 4, 3};
  const std::string path =
      make_time_archive("ptucker_trq_inv.pta", step_dims, 2);
  serve::ServerOptions opts;
  opts.executor_threads = 0;
  const serve::QueryServer server({path}, opts);
  EXPECT_THROW((void)server.time_range(0, 2, 2), InvalidArgument);
  EXPECT_THROW((void)server.time_range(0, 3, 1), InvalidArgument);
  // An inverted or out-of-bounds spatial box throws too.
  serve::Request req{0, 0, 2, {{3, 2}, {0, 4}, {0, 3}}};
  EXPECT_THROW((void)server.subtensor(req), InvalidArgument);
  req.box = {{0, 6}, {0, 4}, {0, 3}};
  EXPECT_THROW((void)server.subtensor(req), InvalidArgument);
  req.box = {{0, 5}, {0, 4}};  // wrong arity
  EXPECT_THROW((void)server.subtensor(req), InvalidArgument);
  std::filesystem::remove(path);
}

TEST(TimeRangeQuery, WindowBoundarySpanMatchesSingleEntryAnswers) {
  const Dims step_dims{5, 4, 3};
  const std::string path =
      make_time_archive("ptucker_trq_span.pta", step_dims, 2);
  serve::ServerOptions opts;
  opts.executor_threads = 0;
  const serve::QueryServer server({path}, opts);
  // [1, 3) straddles the entry boundary at step 2. The stitched answer
  // must equal the two single-entry answers laid side by side, bit for
  // bit — stitching adds nothing and loses nothing.
  const Tensor span = server.time_range(0, 1, 3);
  const Tensor left = server.time_range(0, 1, 2);
  const Tensor right = server.time_range(0, 2, 3);
  ASSERT_EQ(span.size(), left.size() + right.size());
  EXPECT_EQ(std::memcmp(span.data(), left.data(),
                        left.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(span.data() + left.size(), right.data(),
                        right.size() * sizeof(double)),
            0);
  // And it bit-matches the distributed query path on one rank.
  Tensor want;
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1, 1});
    const core::StreamingReconstructor recon(path);
    want = recon.reconstruct_steps(grid, 1, 3).local();
  });
  ASSERT_EQ(span.dims(), want.dims());
  EXPECT_EQ(std::memcmp(span.data(), want.data(),
                        span.size() * sizeof(double)),
            0);
  std::filesystem::remove(path);
}

TEST(TimeRangeQuery, UncommittedTailEntriesAreInvisible) {
  const Dims step_dims{5, 4, 3};
  const std::string path =
      make_time_archive("ptucker_trq_tail.pta", step_dims, 2);
  // Roll the commit point back to one entry: the second entry's table
  // slot and payload bytes are still in the file, but uncommitted — every
  // query path must treat the archive as 2 steps long.
  {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t one = 1;
    // count field offset: magic + u64 * (version, order, 3 step dims,
    // species_mode, capacity) = 4 + 8 * 7 (see archive_io.hpp).
    fs.seekp(4 + 8 * 7);
    fs.write(reinterpret_cast<const char*>(&one), sizeof(one));
  }
  serve::ServerOptions opts;
  opts.executor_threads = 0;
  const serve::QueryServer server({path}, opts);
  EXPECT_EQ(server.num_steps(0), 2u);
  EXPECT_THROW((void)server.time_range(0, 0, 4), InvalidArgument);
  EXPECT_THROW((void)server.time_range(0, 2, 3), InvalidArgument);
  // The committed entry still answers, bit-matching the oracle.
  const Tensor got = server.time_range(0, 0, 2);
  Tensor want;
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1, 1});
    const core::StreamingReconstructor recon(path);
    EXPECT_EQ(recon.num_steps(), 2u);
    want = recon.reconstruct_steps(grid, 0, 2).local();
  });
  ASSERT_EQ(got.dims(), want.dims());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(double)),
            0);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ptucker
