/// \file fault_test.cpp
/// \brief End-to-end failure hardening: every injected failure class
/// (EINTR, short transfers, transient EIO, ENOSPC, bit rot) swept through
/// the PTB1/PTZ1/PTA1 read paths, plus the serve layer's entry quarantine
/// over corrupt archive bytes.
///
/// The injection-driven suites arm pario::faults plans; the corruption
/// suites flip real bytes on disk.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "core/st_hosvd.hpp"
#include "dist/grid.hpp"
#include "obs/registry.hpp"
#include "pario/archive_io.hpp"
#include "pario/block_file.hpp"
#include "pario/failpoint.hpp"
#include "pario/model_io.hpp"
#include "pario/posix_file.hpp"
#include "serve/query_server.hpp"
#include "test_utils.hpp"
#include "util/error.hpp"

namespace ptucker {
namespace {

using dist::DistTensor;
using tensor::Dims;
using tensor::Tensor;
using testing::run_ranks;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Restore the process-wide retry policy on scope exit, so a test that
/// shrinks the backoff for speed cannot leak it into later suites.
class RetryPolicyGuard {
 public:
  explicit RetryPolicyGuard(const pario::RetryPolicy& p)
      : saved_(pario::retry_policy()) {
    pario::set_retry_policy(p);
  }
  ~RetryPolicyGuard() { pario::set_retry_policy(saved_); }

 private:
  pario::RetryPolicy saved_;
};

std::uint64_t counter_value(const char* name) {
  return obs::registry().counter(name).value();
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(fs.good()) << path;
  fs.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  fs.read(&b, 1);
  b = static_cast<char>(b ^ 0x01);
  fs.seekp(static_cast<std::streamoff>(offset));
  fs.write(&b, 1);
}

/// Write a {2,1,1}-grid PTB1 tensor of \p dims at \p path.
void build_ptb1(const std::string& path, const Dims& dims,
                std::uint64_t seed) {
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1, 1});
    DistTensor x(grid, dims);
    x.fill_global(testing::splitmix_field(seed));
    pario::write_dist_tensor(path, x);
  });
}

/// Single-rank read back of \p path, compared bit-exactly to the field.
void expect_ptb1_roundtrips(const std::string& path, const Dims& dims,
                            std::uint64_t seed) {
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const DistTensor y = pario::read_dist_tensor(grid, path);
    DistTensor expect(grid, dims);
    expect.fill_global(testing::splitmix_field(seed));
    EXPECT_EQ(testing::max_diff(expect.local(), y.local()), 0.0);
  });
}

// ---------------------------------------------------------------------------
// Injected syscall-level faults through the container read/write paths.
// ---------------------------------------------------------------------------

TEST(FaultInjection, EintrAndShortTransfersAreTransparent) {
  const std::string path = temp_path("ptucker_fault_eintr.ptb");
  const Dims dims{8, 6, 5};
  pario::faults::FaultPlan plan;
  plan.seed = 7;
  plan.path_substr = "ptucker_fault_eintr";
  plan.p_read_eintr = 0.5;
  plan.p_read_short = 0.5;
  plan.p_write_eintr = 0.5;
  plan.p_write_short = 0.5;
  {
    pario::faults::Guard guard(plan);
    // Both the 2-rank write and the 1-rank read run under heavy EINTR and
    // short-transfer pressure; neither class may change a single byte.
    build_ptb1(path, dims, 31);
    expect_ptb1_roundtrips(path, dims, 31);
    EXPECT_GT(pario::faults::injected(), 0u);
  }
  std::filesystem::remove(path);
}

TEST(FaultInjection, TransientEioRecoversWithinRetryBudget) {
  const std::string path = temp_path("ptucker_fault_eio.ptb");
  const Dims dims{8, 6, 5};
  build_ptb1(path, dims, 13);
  RetryPolicyGuard fast({/*max_attempts=*/4, /*base_backoff_us=*/1,
                         /*max_backoff_us=*/10});
  const std::uint64_t retries0 = counter_value("pario.retries");
  pario::faults::FaultPlan plan;
  plan.seed = 3;
  plan.path_substr = "ptucker_fault_eio";
  plan.p_read_eio = 1.0;
  plan.eio_streak = 2;  // < max_attempts: every call recovers
  {
    pario::faults::Guard guard(plan);
    expect_ptb1_roundtrips(path, dims, 13);
    EXPECT_GT(pario::faults::injected(), 0u);
  }
  EXPECT_GT(counter_value("pario.retries"), retries0);
  std::filesystem::remove(path);
}

TEST(FaultInjection, EioStreakBeyondBudgetGivesUpWithIoError) {
  const std::string path = temp_path("ptucker_fault_giveup.ptb");
  const Dims dims{8, 6, 5};
  build_ptb1(path, dims, 17);
  RetryPolicyGuard fast({/*max_attempts=*/4, /*base_backoff_us=*/1,
                         /*max_backoff_us=*/10});
  const std::uint64_t giveups0 = counter_value("pario.giveups");
  pario::faults::FaultPlan plan;
  plan.seed = 5;
  plan.path_substr = "ptucker_fault_giveup";
  plan.p_read_eio = 1.0;
  plan.eio_streak = 10;  // > max_attempts: the budget must exhaust
  {
    pario::faults::Guard guard(plan);
    pario::File f = pario::File::open_read(path);
    std::uint64_t word = 0;
    try {
      f.read_at(0, &word, sizeof(word));
      FAIL() << "read_at survived a 10-EIO streak on a 4-attempt budget";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("attempts"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_GT(counter_value("pario.giveups"), giveups0);
  std::filesystem::remove(path);
}

TEST(FaultInjection, EnospcFailsLoudly) {
  const std::string path = temp_path("ptucker_fault_enospc.bin");
  pario::faults::FaultPlan plan;
  plan.path_substr = "ptucker_fault_enospc";
  plan.enospc_at_op = 0;  // the very first write-class op
  {
    pario::faults::Guard guard(plan);
    pario::File f = pario::File::create(path);
    const std::uint64_t word = 42;
    try {
      f.write_at(0, &word, sizeof(word));
      FAIL() << "write_at survived injected ENOSPC";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("No space"), std::string::npos)
          << e.what();
    }
  }
  std::filesystem::remove(path);
}

TEST(FaultInjection, Ptt1WriteEnospcThrowsIoError) {
  const std::string path = temp_path("ptucker_fault_ptt1_enospc.ptt");
  Tensor t(Dims{7, 5, 4});
  t.fill_from(testing::splitmix_field(1901));
  // Op 0 is the header write, op 1 the payload write.
  for (const std::int64_t op : {0, 1}) {
    pario::faults::FaultPlan plan;
    plan.path_substr = "ptucker_fault_ptt1_enospc";
    plan.enospc_at_op = op;
    pario::faults::Guard guard(plan);
    EXPECT_THROW(pario::save_tensor(path, t), IoError) << "op " << op;
  }
  std::filesystem::remove(path);
}

TEST(FaultInjection, InjectedBitFlipsRaiseChecksumErrorAcrossSeeds) {
  const std::string path = temp_path("ptucker_fault_bitflip.ptb");
  const Dims dims{8, 6, 5};
  // Every block a 1-rank read covers is one pread of the whole block, well
  // past bitflip_min_bytes: the single-block file reads back as one
  // 1920-byte pread, the 2-rank one (read onto 1 rank, a redistributing
  // read) as two 960-byte preads, one per block.
  for (const std::vector<int>& writer : {std::vector<int>{1, 1, 1},
                                         std::vector<int>{2, 1, 1}}) {
    run_ranks(writer[0], [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, writer);
      DistTensor x(grid, dims);
      x.fill_global(testing::splitmix_field(23));
      pario::write_dist_tensor(path, x);
    });
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      pario::faults::FaultPlan plan;
      plan.seed = seed;
      plan.path_substr = "ptucker_fault_bitflip";
      plan.p_read_bitflip = 1.0;
      // Only payload-sized reads are flipped; the header stays parseable.
      plan.bitflip_min_bytes = 256;
      pario::faults::Guard guard(plan);
      run_ranks(1, [&](mps::Comm& comm) {
        auto grid = dist::make_grid(comm, {1, 1, 1});
        EXPECT_THROW((void)pario::read_dist_tensor(grid, path), ChecksumError)
            << "writer ranks " << writer[0] << ", seed " << seed;
      });
    }
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// On-disk corruption (real byte flips — no substrate needed).
// ---------------------------------------------------------------------------

TEST(Corruption, Ptb1BlockBitRotIsNamedInChecksumError) {
  const std::string path = temp_path("ptucker_rot_block.ptb");
  const Dims dims{8, 6, 5};
  build_ptb1(path, dims, 41);
  // The file tail is core-block payload; flip one bit of it.
  flip_byte(path, std::filesystem::file_size(path) - 1);
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    try {
      (void)pario::read_dist_tensor(grid, path);
      FAIL() << "bit-rotted PTB1 block read back silently";
    } catch (const ChecksumError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
      EXPECT_NE(what.find("block"), std::string::npos) << what;
      EXPECT_NE(what.find(path), std::string::npos) << what;
    }
  });
  std::filesystem::remove(path);
}

TEST(Corruption, Ptb1CrcWordHighHalfFlipIsChecksumError) {
  // Writers store each CRC zero-extended into a u64 slot, so a bit set in
  // the high half is corruption even though the low 32 bits still match.
  const std::string path = temp_path("ptucker_rot_crc_word.ptb");
  const Dims dims{8, 6, 5};
  build_ptb1(path, dims, 43);
  // block_crc[0] follows magic, version, order, 3 dims, 3 grid extents and
  // 2 block offsets; its high half is bytes 4..7 of the little-endian word.
  const std::uint64_t crc0 = 4 + 8 * (1 + 1 + 3 + 3 + 2);
  flip_byte(path, crc0 + 4);
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    EXPECT_THROW((void)pario::read_dist_tensor(grid, path), ChecksumError);
  });
  std::filesystem::remove(path);
}

TEST(Corruption, Ptz1FactorBitRotIsNamedInChecksumError) {
  const std::string path = temp_path("ptucker_rot_factor.ptz");
  const Dims core_dims{3, 3, 3};
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    DistTensor core(grid, core_dims);
    core.fill_global(testing::splitmix_field(9));
    std::vector<tensor::Matrix> factors;
    for (std::size_t n = 0; n < core_dims.size(); ++n) {
      factors.push_back(tensor::Matrix::random_orthonormal(6, 3, 100 + n));
    }
    pario::write_model(path, core,
                       std::span<const tensor::Matrix>(factors));
  });
  // Core blocks are the file tail (27 doubles on a 1-rank grid); the byte
  // just before them is the last byte of the factor payload region.
  const std::uint64_t core_bytes = 27 * sizeof(double);
  flip_byte(path, std::filesystem::file_size(path) - core_bytes - 1);
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    try {
      (void)pario::read_model(path, grid);
      FAIL() << "bit-rotted PTZ1 factor read back silently";
    } catch (const ChecksumError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("factor region"), std::string::npos) << what;
    }
  });
  std::filesystem::remove(path);
}

TEST(Corruption, Pta1TornTableSlotIsNamedInChecksumError) {
  const std::string path = temp_path("ptucker_rot_slot.pta");
  const Dims step_dims{6, 5};
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    pario::archive_create(path, comm, step_dims, -1, /*capacity=*/4);
    Dims dims = step_dims;
    dims.push_back(2);
    DistTensor x(grid, dims);
    x.fill_global(testing::splitmix_field(55));
    core::SthosvdOptions opts;
    opts.epsilon = 1e-8;
    const auto result = core::st_hosvd(x, opts);
    pario::archive_append_model(
        path, 0, 1e-8, result.tucker.core,
        std::span<const tensor::Matrix>(result.tucker.factors));
  });
  // Slot 0 sits right after the fixed header: magic + u64 * (version,
  // order, 2 step dims, species_mode, capacity, count) = 4 + 8 * 7.
  flip_byte(path, 4 + 8 * 7);
  try {
    (void)pario::ArchiveReader(path);
    FAIL() << "torn table slot parsed as a valid entry";
  } catch (const ChecksumError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("table slot 0"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Serve-path degradation: entry quarantine.
// ---------------------------------------------------------------------------

/// Build a plain (no stats) multi-window archive on 2 ranks.
void build_archive(const std::string& path, const Dims& step_dims,
                   std::size_t window, std::size_t windows) {
  run_ranks(2, [&](mps::Comm& comm) {
    std::vector<int> shape(step_dims.size() + 1, 1);
    shape[0] = 2;
    auto grid = dist::make_grid(comm, shape);
    pario::archive_create(path, comm, step_dims, -1, /*capacity=*/8);
    for (std::size_t w = 0; w < windows; ++w) {
      Dims dims = step_dims;
      dims.push_back(window);
      DistTensor x(grid, dims);
      x.fill_global(testing::splitmix_field(300 + w));
      core::SthosvdOptions opts;
      opts.epsilon = 1e-8;
      const auto result = core::st_hosvd(x, opts);
      pario::archive_append_model(
          path, w * window, 1e-8, result.tucker.core,
          std::span<const tensor::Matrix>(result.tucker.factors));
    }
  });
}

serve::Request window_request(std::size_t w, std::size_t window) {
  serve::Request req;
  req.step_lo = w * window;
  req.step_hi = (w + 1) * window;
  return req;
}

TEST(ServeDegradation, QuarantineIsolatesTheCorruptEntry) {
  const std::string path = temp_path("ptucker_serve_quar.pta");
  const std::string pristine = temp_path("ptucker_serve_quar_gold.pta");
  const Dims step_dims{6, 5};
  const std::size_t window = 2;
  build_archive(path, step_dims, window, /*windows=*/3);
  std::filesystem::copy_file(
      path, pristine, std::filesystem::copy_options::overwrite_existing);

  // Corrupt the last payload byte of entry 1 (a core-block byte).
  {
    const pario::ArchiveReader reader(path);
    ASSERT_EQ(reader.entry_count(), 3u);
    const pario::ArchiveEntry& e1 = reader.entry(1);
    flip_byte(path, e1.byte_offset + e1.byte_count - 1);
  }

  const serve::QueryServer server({path});
  const serve::QueryServer oracle({pristine});

  // First touch fails the load with the checksum named...
  EXPECT_THROW((void)server.subtensor(window_request(1, window)),
               ChecksumError);
  // ...and every later touch fails fast with the quarantine named.
  try {
    (void)server.subtensor(window_request(1, window));
    FAIL() << "quarantined entry served";
  } catch (const QuarantinedError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("entry 1"), std::string::npos) << what;
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
  }
  EXPECT_EQ(server.quarantined_entries(), 1u);

  // Every other entry keeps serving, bit-matching the pristine oracle,
  // under concurrent load.
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (std::size_t w : {std::size_t{0}, std::size_t{2}}) {
        const Tensor got = server.subtensor(window_request(w, window));
        const Tensor want = oracle.subtensor(window_request(w, window));
        if (got.size() != want.size() ||
            std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(double)) != 0) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);

  const std::string report = server.stats_report();
  EXPECT_NE(report.find("server.quarantined 1"), std::string::npos);
  std::filesystem::remove(path);
  std::filesystem::remove(pristine);
}

TEST(ServeDegradation, CorruptionAfterOpenIsARewriteThenQuarantined) {
  const std::string path = temp_path("ptucker_serve_quar_late.pta");
  const std::string pristine = temp_path("ptucker_serve_quar_late_gold.pta");
  const Dims step_dims{6, 5};
  const std::size_t window = 2;
  build_archive(path, step_dims, window, /*windows=*/3);
  std::filesystem::copy_file(
      path, pristine, std::filesystem::copy_options::overwrite_existing);

  const serve::QueryServer server({path});
  const serve::QueryServer oracle({pristine});
  // Warm every entry: all three panels are cached at the open generation.
  for (std::size_t w = 0; w < 3; ++w) {
    (void)server.subtensor(window_request(w, window));
  }
  const std::uint64_t gen = server.generation(0);

  // Rot entry 1 under the live server. The pause moves the file's mtime
  // past the timestamp tick of the archive's last write, so the in-place
  // flip (same inode, same size) shows in the stat signature.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    const pario::ArchiveReader reader(path);
    const pario::ArchiveEntry& e1 = reader.entry(1);
    flip_byte(path, e1.byte_offset + e1.byte_count - 1);
  }

  // The next touch sees a rewrite: the cached clean panels are dropped,
  // the reload of entry 1 fails its checksum...
  EXPECT_THROW((void)server.subtensor(window_request(1, window)),
               ChecksumError);
  EXPECT_EQ(server.generation(0), gen + 1);
  // ...and the touch after that fails fast with the quarantine named.
  EXPECT_THROW((void)server.subtensor(window_request(1, window)),
               QuarantinedError);
  EXPECT_EQ(server.quarantined_entries(), 1u);

  // The untouched entries reload at the new generation and still
  // bit-match the pristine oracle.
  for (std::size_t w : {std::size_t{0}, std::size_t{2}}) {
    const Tensor got = server.subtensor(window_request(w, window));
    const Tensor want = oracle.subtensor(window_request(w, window));
    ASSERT_EQ(got.dims(), want.dims());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(double)),
              0)
        << "entry " << w;
  }
  EXPECT_EQ(server.generation(0), gen + 1);
  std::filesystem::remove(path);
  std::filesystem::remove(pristine);
}

}  // namespace
}  // namespace ptucker
