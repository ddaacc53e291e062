/// \file fault_torture_test.cpp
/// \brief Crash-consistency torture: replay archive_append_model with a
/// simulated crash at EVERY write-class boundary (each pwrite/fsync, plus
/// torn-write variants of each pwrite) and assert the invariant the PTA1
/// commit protocol promises — the committed prefix is always fully
/// readable and bit-identical to an uncrashed append's bytes, whatever
/// the crash left behind past it.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/st_hosvd.hpp"
#include "dist/grid.hpp"
#include "pario/archive_io.hpp"
#include "pario/failpoint.hpp"
#include "test_utils.hpp"
#include "util/error.hpp"

namespace ptucker {
namespace {

using dist::DistTensor;
using tensor::Dims;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void copy_over(const std::string& from, const std::string& to) {
  std::filesystem::copy_file(
      from, to, std::filesystem::copy_options::overwrite_existing);
}

std::vector<char> file_bytes(const std::string& path, std::uint64_t offset,
                             std::uint64_t count) {
  std::ifstream fs(path, std::ios::binary);
  fs.seekg(static_cast<std::streamoff>(offset));
  std::vector<char> bytes(count);
  fs.read(bytes.data(), static_cast<std::streamsize>(count));
  return bytes;
}

TEST(CrashTorture, CommittedPrefixSurvivesACrashAtEveryWriteBoundary) {
  const std::string path = temp_path("ptucker_torture.pta");
  const std::string pristine = temp_path("ptucker_torture_1entry.pta");
  const std::string full = temp_path("ptucker_torture_2entry.pta");
  const Dims step_dims{6, 5};
  const std::size_t window = 2;

  bool saw_uncommitted = false;
  bool saw_committed = false;
  testing::run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    // The two window models, deterministic so every replayed append writes
    // the exact same bytes.
    std::vector<core::SthosvdResult> models;
    for (std::size_t w = 0; w < 2; ++w) {
      Dims dims = step_dims;
      dims.push_back(window);
      DistTensor x(grid, dims);
      x.fill_global(testing::splitmix_field(500 + w));
      core::SthosvdOptions opts;
      opts.epsilon = 1e-8;
      models.push_back(core::st_hosvd(x, opts));
    }
    const auto append = [&](std::size_t w) {
      pario::archive_append_model(
          path, w * window, 1e-8, models[w].tucker.core,
          std::span<const tensor::Matrix>(models[w].tucker.factors));
    };

    // Entry 0 lands unfaulted; this is the prefix every crash must keep.
    pario::archive_create(path, comm, step_dims, -1, /*capacity=*/4);
    append(0);
    copy_over(path, pristine);

    // Probe: a neutral plan (no faults, counting only) measures how many
    // write-class ops one append performs — the sweep hits every boundary.
    std::uint64_t total_ops = 0;
    {
      pario::faults::Guard probe(
          pario::faults::FaultPlan{.path_substr = "ptucker_torture"});
      append(1);
      total_ops = pario::faults::write_class_ops();
    }
    ASSERT_GE(total_ops, 4u);  // payload, fsync, slot, count, fsync at least
    copy_over(path, full);  // golden bytes of the fully appended archive
    const pario::ArchiveReader golden(full);
    ASSERT_EQ(golden.entry_count(), 2u);

    for (std::uint64_t k = 0; k < total_ops; ++k) {
      for (const std::uint64_t keep : {std::uint64_t{0}, std::uint64_t{7}}) {
        copy_over(pristine, path);
        {
          pario::faults::FaultPlan plan;
          plan.path_substr = "ptucker_torture";
          plan.crash_at_op = static_cast<std::int64_t>(k);
          plan.crash_keep_bytes = keep;
          pario::faults::Guard guard(plan);
          // The "process" dies at op k: later effects are dropped, but the
          // caller here survives to inspect the wreckage — so the append
          // itself must not throw.
          ASSERT_NO_THROW(append(1)) << "op " << k << " keep " << keep;
          ASSERT_TRUE(pario::faults::crashed());
        }
        // THE invariant: whatever the crash tore, the archive parses and
        // every committed entry reads back bit-identical to golden bytes.
        const pario::ArchiveReader reader(path);
        const std::size_t count = reader.entry_count();
        ASSERT_TRUE(count == 1 || count == 2)
            << "op " << k << " keep " << keep << ": count " << count;
        (count == 1 ? saw_uncommitted : saw_committed) = true;
        EXPECT_EQ(reader.step_end(), count * window);
        for (std::size_t e = 0; e < count; ++e) {
          // Readable end to end (parse + checksum verification)...
          const pario::LocalModelData md = reader.read_entry_local(e);
          EXPECT_GT(md.core.size(), 0u);
          // ...and the blob bytes are exactly the uncrashed append's.
          const pario::ArchiveEntry& ge = golden.entry(e);
          EXPECT_EQ(reader.entry(e).byte_offset, ge.byte_offset);
          EXPECT_EQ(reader.entry(e).byte_count, ge.byte_count);
          const auto got =
              file_bytes(path, ge.byte_offset, ge.byte_count);
          const auto want =
              file_bytes(full, ge.byte_offset, ge.byte_count);
          EXPECT_EQ(got, want)
              << "op " << k << " keep " << keep << " entry " << e;
        }
      }
    }
  });
  // A sweep over every boundary must see both outcomes: crashes before the
  // commit leave 1 entry, crashes after it leave 2.
  EXPECT_TRUE(saw_uncommitted);
  EXPECT_TRUE(saw_committed);
  std::filesystem::remove(path);
  std::filesystem::remove(pristine);
  std::filesystem::remove(full);
}

/// Same sweep for the chained + batched path: a capacity-1 archive whose
/// batched append must materialize continuation tables mid-batch. Whatever
/// op the crash lands on, the archive parses to a consistent prefix of
/// whole tables (1, 2, or all 3 entries), every committed blob is
/// bit-identical to the uncrashed run's, and re-running the append from the
/// survivor's step_end converges to the golden archive byte for byte.
TEST(CrashTorture, ChainedBatchedAppendKeepsPrefixConsistentAndResumable) {
  const std::string path = temp_path("ptucker_torture_chain.pta");
  const std::string pristine = temp_path("ptucker_torture_chain_1.pta");
  const std::string full = temp_path("ptucker_torture_chain_3.pta");
  const Dims step_dims{6, 5};
  const std::size_t window = 2;

  std::vector<bool> saw_count(4, false);
  testing::run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    std::vector<core::SthosvdResult> models;
    for (std::size_t w = 0; w < 3; ++w) {
      Dims dims = step_dims;
      dims.push_back(window);
      DistTensor x(grid, dims);
      x.fill_global(testing::splitmix_field(900 + w));
      core::SthosvdOptions opts;
      opts.epsilon = 1e-8;
      models.push_back(core::st_hosvd(x, opts));
    }
    // Batched append of windows [lo, 3): the capacity-1 primary is full
    // after entry 0, so this materializes one continuation table per
    // appended window, all committed together.
    const auto append_from = [&](std::size_t lo) {
      std::vector<pario::ArchiveWindow> batch(3 - lo);
      for (std::size_t w = lo; w < 3; ++w) {
        batch[w - lo].step_first = w * window;
        batch[w - lo].eps = 1e-8;
        batch[w - lo].core = &models[w].tucker.core;
        batch[w - lo].factors =
            std::span<const tensor::Matrix>(models[w].tucker.factors);
      }
      pario::archive_append_models(
          path, std::span<const pario::ArchiveWindow>(batch));
    };

    pario::archive_create(path, comm, step_dims, -1, /*capacity=*/1);
    pario::archive_append_model(
        path, 0, 1e-8, models[0].tucker.core,
        std::span<const tensor::Matrix>(models[0].tucker.factors));
    copy_over(path, pristine);

    std::uint64_t total_ops = 0;
    {
      pario::faults::Guard probe(
          pario::faults::FaultPlan{.path_substr = "ptucker_torture_chain"});
      append_from(1);
      total_ops = pario::faults::write_class_ops();
    }
    ASSERT_GE(total_ops, 8u);  // 2 tables + 2 payloads + slots + counts
    copy_over(path, full);
    const pario::ArchiveReader golden(full);
    ASSERT_EQ(golden.entry_count(), 3u);

    for (std::uint64_t k = 0; k < total_ops; ++k) {
      for (const std::uint64_t keep : {std::uint64_t{0}, std::uint64_t{7}}) {
        copy_over(pristine, path);
        {
          pario::faults::FaultPlan plan;
          plan.path_substr = "ptucker_torture_chain";
          plan.crash_at_op = static_cast<std::int64_t>(k);
          plan.crash_keep_bytes = keep;
          pario::faults::Guard guard(plan);
          ASSERT_NO_THROW(append_from(1)) << "op " << k << " keep " << keep;
          ASSERT_TRUE(pario::faults::crashed());
        }
        const std::size_t count = pario::ArchiveReader(path).entry_count();
        ASSERT_GE(count, 1u) << "op " << k << " keep " << keep;
        ASSERT_LE(count, 3u) << "op " << k << " keep " << keep;
        saw_count[count] = true;
        {
          const pario::ArchiveReader reader(path);
          EXPECT_EQ(reader.step_end(), count * window);
          for (std::size_t e = 0; e < count; ++e) {
            const pario::LocalModelData md = reader.read_entry_local(e);
            EXPECT_GT(md.core.size(), 0u);
            const pario::ArchiveEntry& ge = golden.entry(e);
            EXPECT_EQ(reader.entry(e).byte_offset, ge.byte_offset);
            EXPECT_EQ(reader.entry(e).byte_count, ge.byte_count);
            EXPECT_EQ(file_bytes(path, ge.byte_offset, ge.byte_count),
                      file_bytes(full, ge.byte_offset, ge.byte_count))
                << "op " << k << " keep " << keep << " entry " << e;
          }
        }
        // Resume exactly as a restarted stream would: append the windows
        // past the survivor's step_end. The rebuilt archive must equal the
        // uncrashed one byte for byte (layout is deterministic; stale torn
        // bytes past the last commit are overwritten or truncated away).
        if (count < 3) append_from(count);
        const pario::ArchiveReader resumed(path);
        ASSERT_EQ(resumed.entry_count(), 3u)
            << "op " << k << " keep " << keep;
        for (std::size_t e = 0; e < 3; ++e) {
          const pario::ArchiveEntry& ge = golden.entry(e);
          EXPECT_EQ(resumed.entry(e).byte_offset, ge.byte_offset);
          EXPECT_EQ(file_bytes(path, ge.byte_offset, ge.byte_count),
                    file_bytes(full, ge.byte_offset, ge.byte_count))
              << "op " << k << " keep " << keep << " entry " << e;
        }
      }
    }
  });
  // The sweep must witness every stopping point: nothing committed, the
  // first chained table committed alone, and the whole batch committed.
  EXPECT_TRUE(saw_count[1]);
  EXPECT_TRUE(saw_count[3]);
  std::filesystem::remove(path);
  std::filesystem::remove(pristine);
  std::filesystem::remove(full);
}

}  // namespace
}  // namespace ptucker
