#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "core/st_hosvd.hpp"
#include "dist/grid.hpp"
#include "pario/block_file.hpp"
#include "pario/timestep_reader.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using dist::DistTensor;
using tensor::Dims;
using tensor::Tensor;
using testing::run_ranks;

/// The value of step t at a spatial multi-index: a distinct deterministic
/// field per step so cross-step mixups are caught.
double step_value(std::span<const std::size_t> idx, std::size_t t) {
  std::uint64_t h = 1000 + t;
  for (std::size_t i : idx) h = util::splitmix64(h ^ (i + 0xABC));
  return static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5;
}

/// Create a fresh step directory with \p steps files of the given dims,
/// alternating the chunked PTB1 and legacy PTT1 containers.
std::string make_step_dir(const char* name, const Dims& dims,
                          std::size_t steps) {
  namespace fs = std::filesystem;
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (std::size_t t = 0; t < steps; ++t) {
    Tensor field(dims);
    field.fill_from(
        [&](std::span<const std::size_t> idx) { return step_value(idx, t); });
    char file[32];
    if (t % 2 == 0) {
      std::snprintf(file, sizeof(file), "step_%04zu.ptt", t);
      pario::save_tensor(dir + "/" + file, field);
    } else {
      std::snprintf(file, sizeof(file), "step_%04zu.ptb", t);
      run_ranks(2, [&](mps::Comm& comm) {
        auto grid = dist::make_grid(comm, {2, 1, 1});
        DistTensor x(grid, dims);
        x.fill_global([&](std::span<const std::size_t> idx) {
          return step_value(idx, t);
        });
        pario::write_dist_tensor(dir + "/" + file, x);
      });
    }
  }
  return dir;
}

TEST(TimestepReader, ScansSortsAndValidates) {
  const Dims dims{6, 5, 4};
  const std::string dir = make_step_dir("ptucker_steps_scan", dims, 5);
  const pario::TimestepReader reader(dir);
  EXPECT_EQ(reader.num_steps(), 5u);
  EXPECT_EQ(reader.step_dims(), dims);
  for (std::size_t t = 1; t < reader.num_steps(); ++t) {
    EXPECT_LT(reader.step_path(t - 1), reader.step_path(t));
  }
  std::filesystem::remove_all(dir);
}

TEST(TimestepReader, ReadStepRangesMatchesOracle) {
  const Dims dims{6, 5, 4};
  const std::string dir = make_step_dir("ptucker_steps_ranges", dims, 3);
  const pario::TimestepReader reader(dir);
  const std::vector<util::Range> ranges{{1, 5}, {0, 3}, {2, 4}};
  for (std::size_t t = 0; t < 3; ++t) {
    const Tensor got = reader.read_step(t, ranges);
    Tensor expect(Dims{4, 3, 2});
    std::size_t i = 0;
    for (std::size_t k = 2; k < 4; ++k) {
      for (std::size_t j = 0; j < 3; ++j) {
        for (std::size_t ii = 1; ii < 5; ++ii) {
          const std::size_t idx[3] = {ii, j, k};
          expect[i++] = step_value(idx, t);
        }
      }
    }
    EXPECT_EQ(testing::max_diff(expect, got), 0.0) << "step " << t;
  }
  std::filesystem::remove_all(dir);
}

TEST(TimestepReader, WindowAssemblyIsCommunicationFree) {
  const Dims dims{6, 5, 4};
  const std::size_t steps = 6;
  const std::string dir = make_step_dir("ptucker_steps_window", dims, steps);
  mps::Runtime rt(4);
  std::vector<std::shared_ptr<mps::CartGrid>> grids(4);
  rt.run([&](mps::Comm& comm) {
    grids[static_cast<std::size_t>(comm.rank())] =
        dist::make_grid(comm, {2, 1, 1, 2});  // time distributed too
  });
  rt.reset_stats();  // count only the streaming pipeline
  rt.run([&](mps::Comm& comm) {
    auto grid = grids[static_cast<std::size_t>(comm.rank())];
    const pario::TimestepReader reader(dir);
    const DistTensor x = reader.read_window(grid, 1, 4);
    EXPECT_EQ(x.global_dims(), (Dims{6, 5, 4, 4}));
    DistTensor expect(grid, Dims{6, 5, 4, 4});
    expect.fill_global([&](std::span<const std::size_t> idx) {
      return step_value(idx.subspan(0, 3), 1 + idx[3]);
    });
    EXPECT_EQ(testing::max_diff(expect.local(), x.local()), 0.0);
  });
  // Scan + window assembly inject no messages at all — not even barriers.
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(rt.rank_stats(r).messages_sent, 0u) << "rank " << r;
  }
  std::filesystem::remove_all(dir);
}

TEST(TimestepReader, WindowWithEmptyAndRaggedSlabsMatchesSteps) {
  // 9 ranks on a 3 x 1 x 1 x 3 grid over a 2-step window: time coordinate 0
  // owns no slices, and mode 0 (extent 7) splits 2/2/3 — across the 3/4
  // split of the PTB1 step files, so some runs come from two writer blocks.
  const Dims dims{7, 5, 4};
  const std::string dir = make_step_dir("ptucker_steps_ragged", dims, 5);
  run_ranks(9, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {3, 1, 1, 3});
    const pario::TimestepReader reader(dir);
    const DistTensor x = reader.read_window(grid, 2, 2);
    EXPECT_EQ(x.global_dims(), (Dims{7, 5, 4, 2}));
    if (grid->coord(3) == 0) {
      EXPECT_EQ(x.local().size(), 0u);
    }
    DistTensor expect(grid, Dims{7, 5, 4, 2});
    expect.fill_global([&](std::span<const std::size_t> idx) {
      return step_value(idx.subspan(0, 3), 2 + idx[3]);
    });
    ASSERT_EQ(expect.local().dims(), x.local().dims());
    for (std::size_t i = 0; i < x.local().size(); ++i) {
      ASSERT_EQ(expect.local()[i], x.local()[i]) << "element " << i;
    }
  });
  std::filesystem::remove_all(dir);
}

TEST(TimestepReader, WindowFeedsSthosvd) {
  const Dims dims{8, 6, 4};
  const std::string dir = make_step_dir("ptucker_steps_hosvd", dims, 4);
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1, 1});
    const pario::TimestepReader reader(dir);
    const DistTensor x = reader.read_window(grid, 0, 4);
    core::SthosvdOptions opts;
    opts.epsilon = 0.5;
    const auto result = core::st_hosvd(x, opts);
    EXPECT_LE(result.error_bound, 0.5);
    EXPECT_EQ(result.tucker.order(), 4);
  });
  std::filesystem::remove_all(dir);
}

TEST(TimestepReader, FdCacheIsLruBounded) {
  const Dims dims{4, 3, 2};
  const std::size_t steps = 10;
  const std::string dir = make_step_dir("ptucker_steps_lru", dims, steps);
  const pario::TimestepReader reader(dir, /*max_cached_files=*/4);
  // The constructor validated every header exactly once, keeping the last 4.
  EXPECT_EQ(reader.file_opens(), steps);
  EXPECT_EQ(reader.cached_files(), 4u);

  std::vector<util::Range> all(dims.size());
  for (std::size_t n = 0; n < dims.size(); ++n) all[n] = {0, dims[n]};
  // Steps 6..9 are cached from the scan: re-reading them opens nothing.
  for (std::size_t t = 6; t < steps; ++t) (void)reader.read_step(t, all);
  EXPECT_EQ(reader.file_opens(), steps);
  // Step 0 was evicted: one new open, still bounded.
  (void)reader.read_step(0, all);
  EXPECT_EQ(reader.file_opens(), steps + 1);
  EXPECT_EQ(reader.cached_files(), 4u);
  // Repeated passes over a window within the bound stay fully cached.
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t t = 0; t < 4; ++t) (void)reader.read_step(t, all);
  }
  EXPECT_EQ(reader.file_opens(), steps + 1 + 3);  // steps 1..3 once each
  std::filesystem::remove_all(dir);
}

TEST(TimestepReader, CachedWindowReadsReopenNothing) {
  const Dims dims{6, 4, 2};
  const std::string dir = make_step_dir("ptucker_steps_lru_win", dims, 6);
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1, 1});
    const pario::TimestepReader reader(dir);  // default bound covers 6 steps
    const std::size_t after_scan = reader.file_opens();
    EXPECT_EQ(after_scan, 6u);
    const DistTensor w1 = reader.read_window(grid, 0, 3);
    const DistTensor w2 = reader.read_window(grid, 2, 4);
    EXPECT_EQ(reader.file_opens(), after_scan)
        << "sliding a window over scanned steps must not re-open files";
    // The data still matches the oracle after cache hits.
    (void)w1;
    const Tensor g = w2.gather(0);
    if (comm.rank() == 0) {
      Tensor expected(g.dims());
      expected.fill_from([&](std::span<const std::size_t> idx) {
        return step_value(idx.subspan(0, 3), 2 + idx[3]);
      });
      EXPECT_EQ(testing::max_diff(g, expected), 0.0);
    }
  });
  std::filesystem::remove_all(dir);
}

TEST(TimestepReader, DetectsRewrittenStepUnderLiveReader) {
  // The in-situ case: the solver rewrites (or keeps writing) a step file
  // while a reader holds it in the fd/header cache. A cache hit must
  // revalidate against the filesystem and serve the NEW bytes.
  const Dims dims{4, 3, 2};
  const std::string dir = make_step_dir("ptucker_steps_stale", dims, 3);
  const pario::TimestepReader reader(dir, /*max_cached_files=*/8);
  std::vector<util::Range> all(dims.size());
  for (std::size_t n = 0; n < dims.size(); ++n) all[n] = {0, dims[n]};

  const Tensor before = reader.read_step(0, all);  // step 0 now cached
  const std::size_t opens_before = reader.file_opens();

  // Rewrite step 0 in place with different content (same dims, same size).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Tensor changed(dims);
  changed.fill_from(
      [&](std::span<const std::size_t> idx) { return step_value(idx, 99); });
  pario::save_tensor(reader.step_path(0), changed);

  const Tensor after = reader.read_step(0, all);
  EXPECT_EQ(reader.file_opens(), opens_before + 1)
      << "a stale cache hit must be evicted and re-opened";
  EXPECT_EQ(testing::max_diff(changed, after), 0.0)
      << "the reader served stale bytes after the rewrite";
  EXPECT_GT(testing::max_diff(before, after), 0.0);

  // An unchanged cached step still serves without re-opening: the
  // revalidation only evicts on a real change.
  const std::size_t opens_mid = reader.file_opens();
  (void)reader.read_step(1, all);
  (void)reader.read_step(1, all);
  EXPECT_EQ(reader.file_opens(), opens_mid);

  // A rewrite that changes the dims is a hard error, not silent corruption.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pario::save_tensor(reader.step_path(0), Tensor(Dims{5, 3, 2}, 1.0));
  EXPECT_THROW((void)reader.read_step(0, all), InvalidArgument);
  std::filesystem::remove_all(dir);
}

TEST(TimestepReader, RejectsMixedDimsAndEmptyDirs) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "ptucker_steps_bad").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  EXPECT_THROW((void)pario::TimestepReader(dir), InvalidArgument);
  pario::save_tensor(dir + "/a.ptt", Tensor(Dims{4, 3}, 1.0));
  pario::save_tensor(dir + "/b.ptt", Tensor(Dims{4, 4}, 1.0));
  EXPECT_THROW((void)pario::TimestepReader(dir), InvalidArgument);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ptucker
