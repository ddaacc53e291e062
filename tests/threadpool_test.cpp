#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "blas/blas.hpp"
#include "blas/threadpool.hpp"
#include "util/rng.hpp"

namespace ptucker {
namespace {

TEST(ThreadPool, RunsEveryPartExactlyOnce) {
  blas::ThreadPool pool;
  for (int parts : {1, 2, 3, 8}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(parts));
    for (auto& h : hits) h.store(0);
    pool.run(parts, [&](int part) {
      hits[static_cast<std::size_t>(part)].fetch_add(1);
    });
    for (int p = 0; p < parts; ++p) {
      EXPECT_EQ(hits[static_cast<std::size_t>(p)].load(), 1)
          << "parts=" << parts << " part=" << p;
    }
  }
  // Workers grew to the high-water mark and stayed.
  EXPECT_EQ(pool.workers(), 7);
}

TEST(ThreadPool, PartZeroRunsOnTheCaller) {
  blas::ThreadPool pool;
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id part0;
  pool.run(4, [&](int part) {
    if (part == 0) part0 = std::this_thread::get_id();
  });
  EXPECT_EQ(part0, caller);
  EXPECT_FALSE(blas::ThreadPool::in_worker());
}

TEST(ThreadPool, WorkersPersistAcrossKernelCalls) {
  // The point of the pool: a batch of large gemms must not spawn threads
  // per call. Prime one threaded call, snapshot the global spawn counter,
  // then hammer the kernel — the counter must not move.
  blas::set_gemm_threads(3);
  const std::size_t n = 256;  // 2n^3 > kThreadFlopThreshold: threading engages
  std::vector<double> a(n * n);
  std::vector<double> b(n * n);
  std::vector<double> c(n * n);
  util::Rng rng(7);
  for (auto& x : a) x = rng.uniform(-1.0, 1.0);
  for (auto& x : b) x = rng.uniform(-1.0, 1.0);
  blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, a.data(), n,
             b.data(), n, 0.0, c.data(), n);
  const std::uint64_t spawned = blas::ThreadPool::workers_spawned();
  EXPECT_GE(spawned, 2u);  // the priming call created this thread's workers
  for (int rep = 0; rep < 20; ++rep) {
    blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, a.data(), n,
               b.data(), n, 0.0, c.data(), n);
  }
  EXPECT_EQ(blas::ThreadPool::workers_spawned(), spawned)
      << "kernel calls after the first must reuse the persistent workers";
  blas::set_gemm_threads(1);
}

TEST(ThreadPool, GrowingThePoolBetweenJobsKeepsJoinsExact) {
  // Regression: workers spawned *after* earlier jobs ran (generation > 0)
  // must adopt the current generation before run() proceeds — a worker
  // starting from generation 0 would consume a stale job and decrement the
  // join counter early, releasing run() while parts still execute.
  blas::ThreadPool pool;
  for (int round = 0; round < 100; ++round) {
    for (int parts : {2, 5, 3, 8}) {  // growth happens mid-sequence, gen > 0
      std::atomic<int> sum{0};
      pool.run(parts, [&](int part) { sum.fetch_add(part + 1); });
      ASSERT_EQ(sum.load(), parts * (parts + 1) / 2)
          << "round " << round << " parts " << parts;
    }
  }
}

TEST(ThreadPool, PropagatesExceptionsAfterJoin) {
  blas::ThreadPool pool;
  EXPECT_THROW(
      pool.run(4,
               [&](int part) {
                 if (part == 2) throw std::runtime_error("boom");
               }),
      std::runtime_error);
  // The pool is still usable after a failed job.
  std::atomic<int> sum{0};
  pool.run(4, [&](int part) { sum.fetch_add(part); });
  EXPECT_EQ(sum.load(), 6);
}

TEST(ThreadPool, InWorkerFlagVisibleInsideJobs) {
  blas::ThreadPool pool;
  std::atomic<int> worker_flags{0};
  std::atomic<int> caller_flags{0};
  pool.run(3, [&](int part) {
    if (part == 0) {
      caller_flags.fetch_add(blas::ThreadPool::in_worker() ? 1 : 0);
    } else {
      worker_flags.fetch_add(blas::ThreadPool::in_worker() ? 1 : 0);
    }
  });
  EXPECT_EQ(caller_flags.load(), 0);  // part 0 is the caller, not a worker
  EXPECT_EQ(worker_flags.load(), 2);
}

}  // namespace
}  // namespace ptucker
