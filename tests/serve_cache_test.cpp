#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/st_hosvd.hpp"
#include "core/streaming.hpp"
#include "data/normalize.hpp"
#include "dist/grid.hpp"
#include "pario/archive_io.hpp"
#include "serve/query_server.hpp"
#include "test_utils.hpp"
#include "util/rng.hpp"

namespace ptucker {
namespace {

using dist::DistTensor;
using tensor::Dims;
using tensor::Tensor;
using testing::run_ranks;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

double field_value(std::span<const std::size_t> idx, std::size_t t) {
  double v = 0.2;
  for (std::size_t n = 0; n < idx.size(); ++n) {
    v += std::sin(0.3 * static_cast<double>(idx[n]) +
                  0.7 * static_cast<double>(n + 1) +
                  0.11 * static_cast<double>(t));
  }
  return v;
}

/// Create (truncating) an archive of \p windows x \p window steps; a
/// nonzero \p field_shift yields different archived values at the same
/// path — the "archive rewritten in place" scenario.
void build_archive(const std::string& path, const Dims& step_dims,
                   std::size_t window, std::size_t windows,
                   std::uint64_t field_shift = 0) {
  run_ranks(2, [&](mps::Comm& comm) {
    std::vector<int> shape(step_dims.size() + 1, 1);
    shape[0] = 2;
    auto grid = dist::make_grid(comm, shape);
    pario::archive_create(path, comm, step_dims, /*species_mode=*/1, 8);
    for (std::size_t w = 0; w < windows; ++w) {
      Dims dims = step_dims;
      dims.push_back(window);
      DistTensor x(grid, dims);
      x.fill_global([&](std::span<const std::size_t> idx) {
        return field_value(idx.subspan(0, idx.size() - 1),
                           field_shift + w * window + idx[idx.size() - 1]);
      });
      data::NormalizationStats stats =
          data::normalize_species(x, /*species_mode=*/1);
      core::SthosvdOptions opts;
      opts.epsilon = 1e-8;
      const auto result = core::st_hosvd(x, opts);
      pario::archive_append_model(
          path, w * window, 1e-8, result.tucker.core,
          std::span<const tensor::Matrix>(result.tucker.factors), &stats);
    }
  });
}

/// Append one more window to an existing archive (pure append: every
/// committed byte of the old entries is untouched).
void append_window(const std::string& path, const Dims& step_dims,
                   std::size_t step_first, std::size_t window) {
  run_ranks(2, [&](mps::Comm& comm) {
    std::vector<int> shape(step_dims.size() + 1, 1);
    shape[0] = 2;
    auto grid = dist::make_grid(comm, shape);
    Dims dims = step_dims;
    dims.push_back(window);
    DistTensor x(grid, dims);
    x.fill_global([&](std::span<const std::size_t> idx) {
      return field_value(idx.subspan(0, idx.size() - 1),
                         step_first + idx[idx.size() - 1]);
    });
    data::NormalizationStats stats = data::normalize_species(x, 1);
    core::SthosvdOptions opts;
    opts.epsilon = 1e-8;
    const auto result = core::st_hosvd(x, opts);
    pario::archive_append_model(
        path, step_first, 1e-8, result.tucker.core,
        std::span<const tensor::Matrix>(result.tucker.factors), &stats);
  });
}

/// A loader stamping the entry index, counting invocations.
serve::PanelCache::Loader stub_loader(std::size_t entry,
                                      std::atomic<std::size_t>* loads) {
  return [entry, loads]() {
    ++*loads;
    auto p = std::make_shared<serve::EntryPanels>();
    p->step_first = entry;
    return p;
  };
}

TEST(PanelCache, EvictsLeastRecentlyUsed) {
  serve::PanelCache cache(/*capacity=*/3);
  std::atomic<std::size_t> loads{0};
  const auto key = [](std::size_t e) {
    return serve::PanelKey{0, 0, e};
  };
  for (std::size_t e = 0; e < 3; ++e) {
    (void)cache.get_or_load(key(e), stub_loader(e, &loads));
  }
  EXPECT_EQ(loads.load(), 3u);
  // Touch e0 so e1 becomes the least recently used...
  (void)cache.get_or_load(key(0), stub_loader(0, &loads));
  EXPECT_EQ(loads.load(), 3u);  // a hit, no load
  // ...then a fourth key must evict e1, keeping e0 and e2.
  (void)cache.get_or_load(key(3), stub_loader(3, &loads));
  const std::vector<serve::PanelKey> keys = cache.keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0].entry, 3u);  // most recently used first
  EXPECT_EQ(keys[1].entry, 0u);
  EXPECT_EQ(keys[2].entry, 2u);
  EXPECT_EQ(cache.counters().evictions, 1u);
  // e1 is gone (reload), e2 is not.
  (void)cache.get_or_load(key(2), stub_loader(2, &loads));
  EXPECT_EQ(loads.load(), 4u);
  (void)cache.get_or_load(key(1), stub_loader(1, &loads));
  EXPECT_EQ(loads.load(), 5u);
}

TEST(PanelCache, ArchivesShareOneRecencyOrder) {
  // Keys of two archives interleave in one LRU: eviction takes the oldest
  // key overall, whichever archive it belongs to.
  serve::PanelCache cache(/*capacity=*/4);
  std::atomic<std::size_t> loads{0};
  const serve::PanelKey a0{0, 0, 0};
  const serve::PanelKey b0{1, 0, 0};
  const serve::PanelKey a1{0, 0, 1};
  const serve::PanelKey b1{1, 0, 1};
  for (const serve::PanelKey& k : {a0, b0, a1, b1}) {
    (void)cache.get_or_load(k, stub_loader(k.entry, &loads));
  }
  // Touch a0, leaving b0 the oldest key of either archive...
  (void)cache.get_or_load(a0, stub_loader(0, &loads));
  EXPECT_EQ(loads.load(), 4u);
  // ...so archive 0's fifth key evicts archive 1's b0.
  (void)cache.get_or_load(serve::PanelKey{0, 0, 2}, stub_loader(2, &loads));
  EXPECT_EQ(cache.counters().evictions, 1u);
  const std::vector<serve::PanelKey> keys = cache.keys();
  const std::vector<serve::PanelKey> want{
      serve::PanelKey{0, 0, 2}, a0, b1, a1};
  EXPECT_EQ(keys, want);
}

TEST(PanelCache, CountersStayConsistentUnderConcurrency) {
  serve::PanelCache cache(/*capacity=*/4);
  std::atomic<std::size_t> loads{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t h = 31 + t;
      for (std::size_t i = 0; i < 100; ++i) {
        h = util::splitmix64(h);
        const std::size_t e = h % 6;
        const auto p =
            cache.get_or_load(serve::PanelKey{0, 0, e},
                              stub_loader(e, &loads));
        if (p == nullptr || p->step_first != e) std::abort();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const serve::CacheCounters c = cache.counters();
  EXPECT_EQ(c.lookups, 400u);
  EXPECT_EQ(c.hits + c.misses, c.lookups);
  // Every counted miss invokes the loader exactly once (racing duplicate
  // loads are each counted as their own thread's miss).
  EXPECT_EQ(loads.load(), c.misses);
  EXPECT_LE(cache.size(), 4u);
}

TEST(PanelCache, EraseArchiveDropsOnlyThatArchive) {
  serve::PanelCache cache(/*capacity=*/8);
  std::atomic<std::size_t> loads{0};
  for (std::size_t a = 0; a < 2; ++a) {
    for (std::size_t e = 0; e < 2; ++e) {
      (void)cache.get_or_load(serve::PanelKey{a, 0, e},
                              stub_loader(e, &loads));
    }
  }
  EXPECT_EQ(cache.size(), 4u);
  cache.erase_archive(0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.counters().invalidations, 2u);
  // Archive 1's panels still hit; archive 0's reload.
  (void)cache.get_or_load(serve::PanelKey{1, 0, 0}, stub_loader(0, &loads));
  EXPECT_EQ(loads.load(), 4u);
  (void)cache.get_or_load(serve::PanelKey{0, 0, 0}, stub_loader(0, &loads));
  EXPECT_EQ(loads.load(), 5u);
}

TEST(ServeRevalidate, InPlaceRewriteBumpsGenerationAndDropsPanels) {
  const std::string path = temp_path("ptucker_serve_rw.pta");
  const Dims step_dims{5, 4, 3};
  build_archive(path, step_dims, 2, 2, /*field_shift=*/0);
  serve::ServerOptions opts;
  opts.executor_threads = 0;
  serve::QueryServer server({path}, opts);
  const serve::Request req{0, 0, 4, {}};
  (void)server.subtensor(req);
  EXPECT_EQ(server.generation(0), 0u);
  EXPECT_EQ(server.cache().size(), 2u);

  // Rewrite the archive in place with different values (mtime tick first,
  // mirroring the TimestepReader stale tests).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  build_archive(path, step_dims, 2, 2, /*field_shift=*/100);

  // The next query must serve the NEW archive: generation bumped, stale
  // panels dropped, answers bit-matching a fresh single-threaded oracle.
  const Tensor got = server.subtensor(req);
  EXPECT_EQ(server.generation(0), 1u);
  EXPECT_GE(server.cache().counters().invalidations, 2u);
  Tensor want;
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1, 1});
    const core::StreamingReconstructor recon(path);
    want = recon.reconstruct_steps(grid, 0, 4).local();
  });
  ASSERT_EQ(got.dims(), want.dims());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(double)),
            0);
  // And the new values really differ from the old field (shift 100).
  const std::size_t idx[] = {1, 2, 1, 0};
  EXPECT_NEAR(got.at(idx),
              field_value(std::span<const std::size_t>(idx, 3), 100), 1e-6);
  std::filesystem::remove(path);
}

TEST(ServeRevalidate, PureAppendKeepsGenerationAndCachedPanels) {
  const std::string path = temp_path("ptucker_serve_app.pta");
  const Dims step_dims{5, 4, 3};
  build_archive(path, step_dims, 2, 2);
  serve::ServerOptions opts;
  opts.executor_threads = 0;
  serve::QueryServer server({path}, opts);
  EXPECT_EQ(server.num_steps(0), 4u);
  (void)server.time_range(0, 0, 4);  // loads entries 0 and 1
  EXPECT_EQ(server.cache().counters().misses, 2u);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  append_window(path, step_dims, 4, 2);

  // The appended window is visible, the generation is unchanged, and the
  // old entries' panels still hit — only the new entry is loaded.
  EXPECT_EQ(server.num_steps(0), 6u);
  const Tensor got = server.time_range(0, 0, 6);
  EXPECT_EQ(server.generation(0), 0u);
  const serve::CacheCounters c = server.cache().counters();
  EXPECT_EQ(c.misses, 3u);
  EXPECT_GE(c.hits, 2u);
  EXPECT_EQ(c.invalidations, 0u);
  Tensor want;
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1, 1});
    const core::StreamingReconstructor recon(path);
    want = recon.reconstruct_steps(grid, 0, 6).local();
  });
  ASSERT_EQ(got.dims(), want.dims());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(double)),
            0);
  std::filesystem::remove(path);
}

TEST(ServeRevalidate, StepDimsChangeUnderTheServerThrows) {
  const std::string path = temp_path("ptucker_serve_dims.pta");
  build_archive(path, Dims{5, 4, 3}, 2, 2);
  serve::ServerOptions opts;
  opts.executor_threads = 0;
  serve::QueryServer server({path}, opts);
  (void)server.time_range(0, 0, 4);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  build_archive(path, Dims{6, 4, 3}, 2, 2);
  EXPECT_THROW((void)server.time_range(0, 0, 4), InvalidArgument);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ptucker
