#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/st_hosvd.hpp"
#include "core/streaming.hpp"
#include "data/normalize.hpp"
#include "dist/grid.hpp"
#include "obs/registry.hpp"
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

/// A smooth, per-step-distinct field so windows compress well and
/// cross-window mixups are caught.
double field_value(std::span<const std::size_t> idx, std::size_t t) {
  double v = 0.2;
  for (std::size_t n = 0; n < idx.size(); ++n) {
    v += std::sin(0.3 * static_cast<double>(idx[n]) +
                  0.7 * static_cast<double>(n + 1) +
                  0.11 * static_cast<double>(t));
  }
  return v;
}

/// Build a normalized multi-window archive at \p path on 2 ranks, so the
/// server's local entry loads exercise blobs written by a genuinely
/// distributed (multi-block) writer.
void build_archive(const std::string& path, const Dims& step_dims,
                   std::size_t window, std::size_t windows,
                   int species_mode, std::uint64_t field_shift = 0,
                   std::size_t capacity = 8) {
  run_ranks(2, [&](mps::Comm& comm) {
    std::vector<int> shape(step_dims.size() + 1, 1);
    shape[0] = 2;
    auto grid = dist::make_grid(comm, shape);
    pario::archive_create(path, comm, step_dims, species_mode, capacity);
    for (std::size_t w = 0; w < windows; ++w) {
      Dims dims = step_dims;
      dims.push_back(window);
      DistTensor x(grid, dims);
      x.fill_global([&](std::span<const std::size_t> idx) {
        return field_value(idx.subspan(0, idx.size() - 1),
                           field_shift + w * window + idx[idx.size() - 1]);
      });
      data::NormalizationStats stats;
      if (species_mode >= 0) {
        stats = data::normalize_species(x, species_mode);
      }
      core::SthosvdOptions opts;
      opts.epsilon = 1e-8;
      const auto result = core::st_hosvd(x, opts);
      pario::archive_append_model(
          path, w * window, 1e-8, result.tucker.core,
          std::span<const tensor::Matrix>(result.tucker.factors),
          species_mode >= 0 ? &stats : nullptr);
    }
  });
}

/// One randomized query in the box form every route reduces to.
struct Q {
  int type = 2;  ///< 0 element, 1 fiber, 2 subtensor, 3 time_range
  int mode = 0;  ///< fiber mode (step order = time)
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::vector<std::size_t> idx;  ///< fixed indices for element/fiber
  std::vector<util::Range> box;  ///< what the oracle evaluates
};

std::vector<Q> make_queries(const Dims& sdims, std::uint64_t steps,
                            std::size_t count, std::uint64_t seed) {
  std::uint64_t h = seed;
  const auto rnd = [&](std::uint64_t m) {
    h = util::splitmix64(h);
    return h % m;
  };
  const std::size_t sorder = sdims.size();
  std::vector<Q> qs(count);
  for (std::size_t i = 0; i < count; ++i) {
    Q& q = qs[i];
    q.type = static_cast<int>(i % 4);
    q.idx.resize(sorder);
    q.box.resize(sorder);
    for (std::size_t n = 0; n < sorder; ++n) {
      q.idx[n] = rnd(sdims[n]);
      q.box[n] = {q.idx[n], q.idx[n] + 1};
    }
    q.lo = rnd(steps);
    q.hi = q.lo + 1;
    switch (q.type) {
      case 0:  // element: unit box, one step
        break;
      case 1: {  // fiber: one mode (possibly time) opened to full extent
        q.mode = static_cast<int>(rnd(sorder + 1));
        if (q.mode == static_cast<int>(sorder)) {
          q.lo = 0;
          q.hi = steps;
        } else {
          q.box[static_cast<std::size_t>(q.mode)] = {
              0, sdims[static_cast<std::size_t>(q.mode)]};
        }
        break;
      }
      case 2: {  // subtensor: random box x random step range
        for (std::size_t n = 0; n < sorder; ++n) {
          const std::size_t lo = rnd(sdims[n]);
          q.box[n] = {lo, lo + 1 + rnd(sdims[n] - lo)};
        }
        q.hi = q.lo + 1 + rnd(steps - q.lo);
        break;
      }
      default: {  // time_range: full box x random step range
        for (std::size_t n = 0; n < sorder; ++n) q.box[n] = {0, sdims[n]};
        q.hi = q.lo + 1 + rnd(steps - q.lo);
        break;
      }
    }
  }
  return qs;
}

/// Single-threaded oracle: reconstruct_steps of each query's box on a
/// 1-rank grid (the distributed query path the server must bit-match).
std::vector<Tensor> oracle_answers(const std::string& archive,
                                   const std::vector<Q>& qs) {
  std::vector<Tensor> answers(qs.size());
  run_ranks(1, [&](mps::Comm& comm) {
    const core::StreamingReconstructor recon(archive);
    std::vector<int> shape(recon.step_dims().size() + 1, 1);
    auto grid = dist::make_grid(comm, shape);
    for (std::size_t i = 0; i < qs.size(); ++i) {
      answers[i] =
          recon.reconstruct_steps(grid, qs[i].lo, qs[i].hi, qs[i].box)
              .local();
    }
  });
  return answers;
}

/// Issue \p q through the route its type names and compare bit-for-bit.
bool answer_matches(const serve::QueryServer& server, const Q& q,
                    const Tensor& want, bool use_submit) {
  switch (q.type) {
    case 0: {
      const double v = server.element(
          0, q.lo, std::span<const std::size_t>(q.idx));
      return want.size() == 1 &&
             std::memcmp(&v, want.data(), sizeof(double)) == 0;
    }
    case 1: {
      const std::vector<double> f = server.fiber(
          0, q.lo, q.mode, std::span<const std::size_t>(q.idx));
      return f.size() == want.size() &&
             std::memcmp(f.data(), want.data(),
                         f.size() * sizeof(double)) == 0;
    }
    default: {
      const serve::Request req{0, q.lo, q.hi, q.box};
      const Tensor got =
          use_submit ? server.submit(req).get() : server.subtensor(req);
      return got.dims() == want.dims() &&
             std::memcmp(got.data(), want.data(),
                         got.size() * sizeof(double)) == 0;
    }
  }
}

TEST(Serve, EightThreadsOfRandomQueriesBitMatchTheOracle) {
  const std::string path = temp_path("ptucker_serve_rand.pta");
  const Dims step_dims{6, 5, 4};
  const std::uint64_t steps = 9;  // 3 windows of 3
  build_archive(path, step_dims, 3, 3, /*species_mode=*/2);
  const std::vector<Q> qs = make_queries(step_dims, steps, 40, 0xfeed);
  const std::vector<Tensor> want = oracle_answers(path, qs);

  serve::ServerOptions opts;
  opts.cache_capacity = 8;
  opts.executor_threads = 4;
  serve::QueryServer server({path}, opts);

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      std::uint64_t h = 0xc11e47 + t;
      for (std::size_t iter = 0; iter < 2 * qs.size(); ++iter) {
        h = util::splitmix64(h);
        const std::size_t i = h % qs.size();
        if (!answer_matches(server, qs[i], want[i], (h >> 32) & 1)) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const serve::CacheCounters cc = server.cache().counters();
  EXPECT_EQ(cc.hits + cc.misses, cc.lookups);
  EXPECT_GT(cc.hits, 0u);  // 640 queries over 3 entries must mostly hit
  const serve::ExecutorCounters ec = server.executor_counters();
  EXPECT_EQ(ec.submitted, ec.completed);
  std::filesystem::remove(path);
}

TEST(Serve, CacheThrashAtCapacityOneStaysCorrect) {
  const std::string path = temp_path("ptucker_serve_thrash.pta");
  const Dims step_dims{5, 4, 3};
  build_archive(path, step_dims, 2, 3, /*species_mode=*/2);
  // One full-window query per entry, so concurrent clients force the
  // single cache slot to thrash across all three entries.
  std::vector<Q> qs(3);
  for (std::size_t w = 0; w < 3; ++w) {
    qs[w].type = 2;
    qs[w].lo = 2 * w;
    qs[w].hi = 2 * w + 2;
    for (std::size_t d : step_dims) qs[w].box.push_back({0, d});
  }
  const std::vector<Tensor> want = oracle_answers(path, qs);

  serve::ServerOptions opts;
  opts.cache_capacity = 1;
  opts.executor_threads = 2;
  serve::QueryServer server({path}, opts);

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t iter = 0; iter < 12; ++iter) {
        const std::size_t i = (t + iter) % qs.size();
        if (!answer_matches(server, qs[i], want[i], iter & 1)) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const serve::CacheCounters cc = server.cache().counters();
  EXPECT_EQ(cc.hits + cc.misses, cc.lookups);
  EXPECT_GT(cc.evictions, 0u);  // three entries through one slot
  std::filesystem::remove(path);
}

TEST(Serve, ColdAndWarmAnswersBitMatch) {
  const std::string path = temp_path("ptucker_serve_warm.pta");
  const Dims step_dims{6, 4, 3};
  build_archive(path, step_dims, 3, 2, /*species_mode=*/2);
  serve::ServerOptions opts;
  opts.executor_threads = 0;  // inline: cold/warm is purely the cache
  serve::QueryServer server({path}, opts);

  const serve::Request req{0, 1, 5, {{1, 5}, {0, 4}, {1, 3}}};
  const Tensor cold = server.subtensor(req);
  const serve::CacheCounters after_cold = server.cache().counters();
  EXPECT_EQ(after_cold.misses, 2u);  // both covering entries loaded
  EXPECT_EQ(after_cold.hits, 0u);
  const Tensor warm = server.subtensor(req);
  const serve::CacheCounters after_warm = server.cache().counters();
  EXPECT_EQ(after_warm.misses, 2u);  // no new loads
  EXPECT_EQ(after_warm.hits, 2u);
  ASSERT_EQ(cold.dims(), warm.dims());
  EXPECT_EQ(std::memcmp(cold.data(), warm.data(),
                        cold.size() * sizeof(double)),
            0);
  std::filesystem::remove(path);
}

TEST(Serve, BoundedExecutorCompletesEverySubmitUnderOverload) {
  const std::string path = temp_path("ptucker_serve_exec.pta");
  const Dims step_dims{5, 4, 3};
  build_archive(path, step_dims, 2, 2, /*species_mode=*/-1);
  serve::ServerOptions opts;
  // Two workers, so a two-deep queue: four clients must block on submit,
  // never grow the queue.
  opts.executor_threads = 2;
  serve::QueryServer server({path}, opts);

  const serve::Request req{0, 0, 4, {}};
  const Tensor want = server.subtensor(req);
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (std::size_t iter = 0; iter < 10; ++iter) {
        const Tensor got = server.submit(req).get();
        if (got.dims() != want.dims() ||
            std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(double)) != 0) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const serve::ExecutorCounters ec = server.executor_counters();
  EXPECT_EQ(ec.submitted, 40u);
  EXPECT_EQ(ec.completed, 40u);
  EXPECT_LE(ec.peak_queue, 2u);
  EXPECT_EQ(server.queue_size(), 0u);

  // A malformed request surfaces on the future, not in the worker.
  serve::Request bad = req;
  bad.step_hi = 99;
  EXPECT_THROW((void)server.submit(bad).get(), InvalidArgument);
  std::filesystem::remove(path);
}

TEST(Serve, ZeroExecutorThreadsEvaluatesInline) {
  const std::string path = temp_path("ptucker_serve_inline.pta");
  const Dims step_dims{4, 3, 3};
  build_archive(path, step_dims, 2, 2, /*species_mode=*/2);
  serve::ServerOptions opts;
  opts.executor_threads = 0;
  serve::QueryServer server({path}, opts);
  const serve::Request req{0, 0, 3, {{0, 4}, {1, 3}, {0, 2}}};
  std::future<Tensor> fut = server.submit(req);
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const Tensor got = fut.get();
  const Tensor want = server.subtensor(req);
  EXPECT_EQ(got.dims(), want.dims());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(double)),
            0);
  std::filesystem::remove(path);
}

TEST(Serve, AnswersApproximateTheOriginalPhysicalField) {
  // End to end: near-lossless compression + archived stats means served
  // values are the physical field, not the normalized one.
  const std::string path = temp_path("ptucker_serve_phys.pta");
  const Dims step_dims{6, 5, 4};
  build_archive(path, step_dims, 3, 2, /*species_mode=*/2);
  serve::QueryServer server({path});
  std::uint64_t h = 77;
  for (int i = 0; i < 16; ++i) {
    std::vector<std::size_t> idx(step_dims.size());
    for (std::size_t n = 0; n < step_dims.size(); ++n) {
      h = util::splitmix64(h);
      idx[n] = h % step_dims[n];
    }
    h = util::splitmix64(h);
    const std::uint64_t t = h % 6;
    EXPECT_NEAR(
        server.element(0, t, std::span<const std::size_t>(idx)),
        field_value(std::span<const std::size_t>(idx), t), 1e-6)
        << "step " << t;
  }
  std::filesystem::remove(path);
}

TEST(Serve, TracedQueryReportsConsistentBreakdown) {
  const std::string path = temp_path("ptucker_serve_traced.pta");
  const Dims step_dims{6, 4, 3};
  build_archive(path, step_dims, 3, 2, /*species_mode=*/2);
  serve::ServerOptions opts;
  opts.executor_threads = 0;
  serve::QueryServer server({path}, opts);

  const serve::Request req{0, 1, 5, {{1, 5}, {0, 4}, {1, 3}}};
  const Tensor want = server.subtensor(req);  // loads both covering entries

  serve::QueryTrace warm;
  const Tensor got = server.subtensor_traced(req, warm);
  ASSERT_EQ(got.dims(), want.dims());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(double)),
            0)
      << "tracing changed the answer";
  EXPECT_EQ(warm.entries_touched, 2u);
  EXPECT_EQ(warm.cache_hits + warm.cache_misses, warm.entries_touched);
  EXPECT_EQ(warm.cache_hits, 2u);  // all panels resident after the warmup
  EXPECT_EQ(warm.bytes_loaded, 0u);
  EXPECT_EQ(warm.load_us, 0u);  // the loader never ran
  // Stage timers are disjoint sub-intervals of the query, so (with floor
  // rounding) their sum cannot exceed the total.
  EXPECT_LE(warm.route_us + warm.load_us + warm.reconstruct_us +
                warm.denormalize_us + warm.stitch_us,
            warm.total_us);

  // A fresh server sees the same query cold: every entry is a miss and the
  // loaded blob bytes are accounted.
  serve::QueryServer cold_server({path}, opts);
  serve::QueryTrace cold;
  const Tensor cold_got = cold_server.subtensor_traced(req, cold);
  EXPECT_EQ(std::memcmp(cold_got.data(), want.data(),
                        cold_got.size() * sizeof(double)),
            0);
  EXPECT_EQ(cold.cache_misses, 2u);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_GT(cold.bytes_loaded, 0u);
  std::filesystem::remove(path);
}

TEST(Serve, StatsReportExposesTheWholeStack) {
  const std::string path = temp_path("ptucker_serve_stats.pta");
  const Dims step_dims{5, 4, 3};
  build_archive(path, step_dims, 2, 2, /*species_mode=*/2);
  serve::QueryServer server({path});
  const std::uint64_t queries_before =
      obs::registry().counter("serve.queries").value();
  const std::size_t served = 3;
  for (std::size_t q = 0; q < served; ++q) {
    (void)server.subtensor({0, 0, 4, {}});
  }

  const std::string report = server.stats_report();
  // Server-local lines are always present.
  EXPECT_NE(report.find("server.archives 1"), std::string::npos);
  EXPECT_NE(report.find("server.cache.lookups"), std::string::npos);
  EXPECT_NE(report.find("server.exec.submitted"), std::string::npos);
  EXPECT_NE(report.find("server.cache.hits"), std::string::npos);
  // Each count has one record: the registry does not mirror the server's.
  EXPECT_EQ(report.find("serve.cache."), std::string::npos);
  EXPECT_EQ(report.find("serve.exec."), std::string::npos);
  // The embedded registry snapshot reaches across subsystem boundaries:
  // the serve histogram and the pario layer underneath.
  EXPECT_NE(report.find("serve.query_us"), std::string::npos);
  EXPECT_NE(report.find("pario.read_bytes"), std::string::npos);
  // The registry sees every query served, exactly once.
  EXPECT_EQ(obs::registry().counter("serve.queries").value() - queries_before,
            served);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ptucker
