// Measured memory footprint of the read and compress paths, pinned against
// the paper's eq. 2 per-rank bound.
//
// This executable replaces the global operator new/delete with a counter of
// live and peak heap bytes. Ranks are threads of one process, so the counter
// sees every rank's allocations; a test resets the peak at a barrier, runs
// the operation on every rank, and reads the peak growth at the next
// barrier. Each test first runs its operation once on the same rank threads
// so that lazily built per-thread state (the BLAS thread pool, pack buffers,
// registry counters) is not counted.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>

#include "core/st_hosvd.hpp"
#include "costmodel/tucker_model.hpp"
#include "dist/grid.hpp"
#include "pario/block_file.hpp"
#include "test_utils.hpp"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void note_alloc(void* p) {
  const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t now =
      g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak && !g_peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void* counted_new(std::size_t bytes) {
  void* p = std::malloc(bytes == 0 ? 1 : bytes);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* counted_new(std::size_t bytes, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a nonzero multiple of the alignment.
  void* p = std::aligned_alloc(a, (bytes / a + 1) * a);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void counted_delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_new(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_new(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_new(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_delete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_delete(p);
}

namespace ptucker {
namespace {

using dist::DistTensor;
using tensor::Dims;

/// Start a measurement window: the peak restarts from the bytes live now.
std::int64_t reset_peak() {
  const std::int64_t live = g_live.load(std::memory_order_relaxed);
  g_peak.store(live, std::memory_order_relaxed);
  return live;
}

std::int64_t peak_bytes() { return g_peak.load(std::memory_order_relaxed); }

std::int64_t bytes_of(std::size_t doubles) {
  return static_cast<std::int64_t>(doubles * sizeof(double));
}

TEST(Footprint, ReadDistTensorAllocatesTheBlockOnce) {
  // 64^3 doubles = 2 MiB over a 1x1x2 grid: a 1 MiB block per rank.
  const std::string path =
      (std::filesystem::temp_directory_path() / "ptucker_footprint_read.ptb")
          .string();
  const Dims dims{64, 64, 64};
  std::int64_t start = 0;
  std::int64_t peak = 0;
  testing::run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 2});
    {
      DistTensor x(grid, dims);
      x.fill_global(testing::splitmix_field(5));
      pario::write_dist_tensor(path, x);
      (void)pario::read_dist_tensor(grid, path);  // warm-up
    }
    comm.barrier();
    if (comm.rank() == 0) start = reset_peak();
    comm.barrier();
    const DistTensor y = pario::read_dist_tensor(grid, path);
    comm.barrier();
    if (comm.rank() == 0) peak = peak_bytes();
  });
  std::filesystem::remove(path);
  // Each rank allocates exactly its own block; headers, the offset table
  // and the barriers fit in 64 KiB. The lower bound shows the counter saw
  // the blocks at all.
  const std::int64_t blocks = bytes_of(dims[0] * dims[1] * dims[2]);
  RecordProperty("peak_growth_bytes", std::to_string(peak - start));
  EXPECT_GE(peak - start, blocks);
  EXPECT_LE(peak - start, blocks + 64 * 1024)
      << "read_dist_tensor grew the heap by " << (peak - start)
      << " bytes for " << blocks << " bytes of blocks";
}

TEST(Footprint, RedistributingReadScratchStaysWithinOneFileBlock) {
  // 64^3 doubles written on 1x1x2 and read on 2x1x1: every 1 MiB
  // destination block cuts both 1 MiB file blocks, so the read goes through
  // the per-call scratch. Only rank 0 reads inside the window.
  const std::string path = (std::filesystem::temp_directory_path() /
                            "ptucker_footprint_redistribute.ptb")
                               .string();
  const Dims dims{64, 64, 64};
  testing::run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 2});
    DistTensor x(grid, dims);
    x.fill_global(testing::splitmix_field(6));
    pario::write_dist_tensor(path, x);
  });
  std::int64_t start = 0;
  std::int64_t peak = 0;
  testing::run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    (void)pario::read_dist_tensor(grid, path);  // warm-up
    comm.barrier();
    if (comm.rank() == 0) {
      start = reset_peak();
      const DistTensor y = pario::read_dist_tensor(grid, path);
      peak = peak_bytes();
    }
    comm.barrier();
  });
  std::filesystem::remove(path);
  // The destination block plus at most one file block of scratch; headers
  // and the offset table fit in 64 KiB. A whole-file buffer (2 MiB) would
  // not fit.
  const std::int64_t block = bytes_of(dims[0] * dims[1] * dims[2] / 2);
  RecordProperty("peak_growth_bytes", std::to_string(peak - start));
  EXPECT_GE(peak - start, block);
  EXPECT_LE(peak - start, 2 * block + 64 * 1024)
      << "a redistributing read grew the heap by " << (peak - start)
      << " bytes for a " << block << "-byte destination block";
}

TEST(Footprint, SthosvdStaysWithinEq2) {
  // 32^4 doubles over a 1x1x1x2 grid: X is u = 4 MiB per rank. Mode 0 keeps
  // 3/4 and mode 1 a quarter, so X plus the first two TTM outputs is
  // (1 + 3/4 + 3/16) u per rank, inside eq. 2's 2u. A second copy of X
  // would not fit: one rank holding X, the copy and the first output
  // (2.75u) while the other holds at least X and its output (1.75u) is 4.5u.
  const Dims dims{32, 32, 32, 32};
  const Dims ranks{24, 8, 16, 16};
  const std::vector<int> shape{1, 1, 1, 2};
  core::SthosvdOptions opts;
  opts.fixed_ranks = ranks;
  std::int64_t start = 0;
  std::int64_t peak = 0;
  testing::run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, shape);
    {
      DistTensor x(grid, dims);
      x.fill_global(testing::splitmix_field(17));
      (void)core::st_hosvd(x, opts);  // warm-up
    }
    comm.barrier();
    if (comm.rank() == 0) start = g_live.load(std::memory_order_relaxed);
    comm.barrier();
    DistTensor x(grid, dims);
    x.fill_global(testing::splitmix_field(17));
    comm.barrier();
    if (comm.rank() == 0) (void)reset_peak();
    comm.barrier();
    const core::SthosvdResult result = core::st_hosvd(x, opts);
    comm.barrier();
    if (comm.rank() == 0) peak = peak_bytes();
    comm.barrier();
  });
  // Eq. 2 bounds each rank at 2 I/P + sum_n Rn In / Pn + max In^2 +
  // max Rn In doubles: X plus one working tensor, the factors, and a Gram
  // matrix. The slack covers the per-call workspace the bound leaves out
  // (TTM partials and pack buffers, message copies of the Gram allreduce).
  double bound_doubles = 0.0;
  for (int r = 0; r < 2; ++r) {
    bound_doubles += costmodel::memory_bound_per_rank(dims, ranks, shape);
  }
  const std::int64_t bound = static_cast<std::int64_t>(8.0 * bound_doubles);
  const std::int64_t slack = 256 * 1024;
  RecordProperty("peak_bytes", std::to_string(peak - start));
  RecordProperty("eq2_bound_bytes", std::to_string(bound));
  EXPECT_GE(peak - start, bytes_of(32 * 32 * 32 * 32));  // X is counted
  EXPECT_LE(peak - start, bound + slack)
      << "st_hosvd peaked at " << (peak - start) << " live bytes against an "
      << "eq. 2 bound of " << bound << " bytes";
}

}  // namespace
}  // namespace ptucker
