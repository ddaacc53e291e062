#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <span>

#include "core/st_hosvd.hpp"
#include "core/tucker_io.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "obs/registry.hpp"
#include "pario/block_file.hpp"
#include "pario/model_io.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using core::TuckerTensor;
using dist::DistTensor;
using tensor::Dims;
using tensor::Tensor;
using testing::run_ranks;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Every message the write/read paths may legitimately inject is a barrier
/// token; any payload word elsewhere is inter-rank data movement.
void expect_only_barrier_traffic(const mps::Runtime& rt) {
  for (int r = 0; r < rt.world_size(); ++r) {
    const mps::CommStats& s = rt.rank_stats(r);
    for (int k = 0; k < mps::CommStats::kNumOps; ++k) {
      const auto kind = static_cast<mps::OpKind>(k);
      if (kind == mps::OpKind::Barrier) continue;
      EXPECT_EQ(s.op_message_count(kind), 0u)
          << "rank " << r << " sent " << mps::op_name(kind) << " messages";
      EXPECT_EQ(s.op_words(kind), 0.0)
          << "rank " << r << " moved " << mps::op_name(kind) << " words";
    }
  }
}

TEST(ParIo, RoundTripSameGridBitExactWithZeroDataMovement) {
  const std::string path = temp_path("ptucker_ptb_same.ptb");
  const Dims dims{9, 8, 7};
  mps::Runtime rt(4);
  std::vector<DistTensor> xs(4);
  rt.run([&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    DistTensor x(grid, dims);
    x.fill_global(testing::splitmix_field(31));
    xs[static_cast<std::size_t>(comm.rank())] = std::move(x);
  });
  rt.reset_stats();  // count only the IO path itself
  rt.run([&](mps::Comm& comm) {
    const DistTensor& x = xs[static_cast<std::size_t>(comm.rank())];
    pario::write_dist_tensor(path, x);
    const DistTensor y = pario::read_dist_tensor(x.grid_ptr(), path);
    EXPECT_EQ(y.global_dims(), dims);
    // Bit-exact: the payload is raw little-endian doubles either way.
    EXPECT_EQ(testing::max_diff(x.local(), y.local()), 0.0);
  });
  expect_only_barrier_traffic(rt);
  EXPECT_EQ(std::filesystem::file_size(path),
            pario::ptb1_file_bytes(dims, {2, 2, 1}));
  std::filesystem::remove(path);
}

TEST(ParIo, RedistributesAcrossGridsAndRankCounts) {
  const std::string path = temp_path("ptucker_ptb_redist.ptb");
  const Dims dims{10, 7, 6};
  Tensor reference;
  // Write on a 2x2x1 grid of 4 ranks...
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    DistTensor x(grid, dims);
    x.fill_global(testing::splitmix_field(77));
    pario::write_dist_tensor(path, x);
    const Tensor global = x.gather(0);
    if (comm.rank() == 0) reference = global;
  });
  // ...read on a 3x1x2 grid of 6 ranks: every rank assembles its block from
  // the writer's offset table with no communication at all.
  mps::Runtime rt(6);
  std::vector<std::shared_ptr<mps::CartGrid>> grids(6);
  rt.run([&](mps::Comm& comm) {
    grids[static_cast<std::size_t>(comm.rank())] =
        dist::make_grid(comm, {3, 1, 2});
  });
  rt.reset_stats();  // count only the redistribution read
  rt.run([&](mps::Comm& comm) {
    auto grid = grids[static_cast<std::size_t>(comm.rank())];
    const DistTensor y = pario::read_dist_tensor(grid, path);
    DistTensor expect(grid, dims);
    expect.fill_global(testing::splitmix_field(77));
    EXPECT_EQ(testing::max_diff(expect.local(), y.local()), 0.0);
  });
  // The read path is zero-message outright (not even barriers).
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(rt.rank_stats(r).messages_sent, 0u) << "rank " << r;
  }
  // And a single-rank read sees the full original tensor.
  run_ranks(1, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 1, 1});
    const DistTensor y = pario::read_dist_tensor(grid, path);
    EXPECT_EQ(testing::max_diff(reference, y.local()), 0.0);
  });
  std::filesystem::remove(path);
}

TEST(ParIo, ReadsLegacyPtt1FilesBlockParallel) {
  const std::string path = temp_path("ptucker_ptb_legacy.ptt");
  const Dims dims{8, 6, 5};
  Tensor global(dims);
  global.fill_from(testing::splitmix_field(5));
  pario::save_tensor(path, global);
  mps::Runtime rt(4);
  std::vector<std::shared_ptr<mps::CartGrid>> grids(4);
  rt.run([&](mps::Comm& comm) {
    grids[static_cast<std::size_t>(comm.rank())] =
        dist::make_grid(comm, {1, 2, 2});
  });
  rt.reset_stats();
  rt.run([&](mps::Comm& comm) {
    auto grid = grids[static_cast<std::size_t>(comm.rank())];
    const DistTensor y = pario::read_dist_tensor(grid, path);
    DistTensor expect(grid, dims);
    expect.fill_global(testing::splitmix_field(5));
    EXPECT_EQ(testing::max_diff(expect.local(), y.local()), 0.0);
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(rt.rank_stats(r).messages_sent, 0u) << "rank " << r;
  }
  std::filesystem::remove(path);
}

TEST(ParIo, HandlesEmptyBlocks) {
  // 5 ranks over a mode of extent 3: uniform floor splits leave some ranks
  // with nothing to write or read.
  const std::string path = temp_path("ptucker_ptb_empty.ptb");
  const Dims dims{3, 4};
  run_ranks(5, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {5, 1});
    DistTensor x(grid, dims);
    x.fill_global(testing::splitmix_field(9));
    pario::write_dist_tensor(path, x);
    const DistTensor y = pario::read_dist_tensor(grid, path);
    EXPECT_EQ(testing::max_diff(x.local(), y.local()), 0.0);
  });
  // The file is complete (trailing empty blocks included in the size).
  EXPECT_EQ(std::filesystem::file_size(path),
            pario::ptb1_file_bytes(dims, {5, 1}));
  // Cross-grid read of the same file.
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {1, 2});
    const DistTensor y = pario::read_dist_tensor(grid, path);
    DistTensor expect(grid, dims);
    expect.fill_global(testing::splitmix_field(9));
    EXPECT_EQ(testing::max_diff(expect.local(), y.local()), 0.0);
  });
  std::filesystem::remove(path);
}

TEST(ParIo, RejectsTruncatedAndCorruptFiles) {
  const std::string path = temp_path("ptucker_ptb_corrupt.ptb");
  const Dims dims{6, 6};
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1});
    DistTensor x(grid, dims);
    x.fill_global(testing::splitmix_field(3));
    pario::write_dist_tensor(path, x);
  });

  // Garbage magic.
  const std::string garbage = temp_path("ptucker_ptb_garbage.ptb");
  {
    std::ofstream os(garbage, std::ios::binary);
    os << "not a block tensor at all";
  }
  EXPECT_THROW((void)pario::BlockFile::open(garbage), InvalidArgument);
  std::filesystem::remove(garbage);

  // Corrupt dims: an absurd extent must be rejected before any size
  // arithmetic can wrap or any allocation is attempted (dims[0] sits at
  // byte 20: magic + version + order).
  {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t absurd = 1ull << 62;
    fs.seekp(20);
    fs.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  }
  EXPECT_THROW((void)pario::BlockFile::open(path), InvalidArgument);
  {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t dim = 6;  // restore
    fs.seekp(20);
    fs.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  }

  // Truncated payload: the offset table points past the new end.
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 16);
  EXPECT_THROW((void)pario::BlockFile::open(path), InvalidArgument);

  // Truncated header.
  std::filesystem::resize_file(path, 12);
  EXPECT_THROW((void)pario::BlockFile::open(path), InvalidArgument);
  std::filesystem::remove(path);

  EXPECT_THROW((void)pario::BlockFile::open(temp_path("ptucker_missing.ptb")),
               InvalidArgument);

  // PTT1: "PTT1" | u64 order (byte 4) | u64 dims (from byte 12) | payload.
  // Each corruption is rejected by open(), before any payload is sized or
  // allocated.
  const std::string ptt = temp_path("ptucker_ptt_corrupt.ptt");
  const auto write_u64_at = [&](std::uint64_t offset, std::uint64_t v) {
    std::fstream fs(ptt, std::ios::binary | std::ios::in | std::ios::out);
    fs.seekp(static_cast<std::streamoff>(offset));
    fs.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  Tensor t(Dims{6, 5});
  t.fill_from(testing::splitmix_field(4));
  pario::save_tensor(ptt, t);
  write_u64_at(12, 1ull << 62);  // absurd dims[0]
  EXPECT_THROW((void)pario::BlockFile::open(ptt), InvalidArgument);
  for (const std::uint64_t bad_order :
       {std::uint64_t{0}, pario::detail::kMaxOrder + 1}) {
    pario::save_tensor(ptt, t);
    write_u64_at(4, bad_order);
    EXPECT_THROW((void)pario::BlockFile::open(ptt), InvalidArgument)
        << "order " << bad_order;
  }
  pario::save_tensor(ptt, t);
  std::filesystem::resize_file(ptt, std::filesystem::file_size(ptt) - 8);
  EXPECT_THROW((void)pario::BlockFile::open(ptt), InvalidArgument);
  std::filesystem::remove(ptt);
}

TEST(ParIo, ReadIntoRejectsMismatchedDestination) {
  // A PTT1 file is one block at the end of its header: magic, order, dims.
  const std::string path = temp_path("ptucker_read_into.ptt");
  const Dims dims{4, 5, 3};
  Tensor t(dims);
  t.fill_from(testing::splitmix_field(12));
  pario::save_tensor(path, t);
  const pario::File file = pario::File::open_read(path);
  const std::vector<int> grid{1, 1, 1};
  const std::vector<std::uint64_t> offsets{4 + 8 * (1 + dims.size())};
  const std::vector<util::Range> ranges{{1, 3}, {0, 5}, {1, 2}};
  const Tensor expect = t.subtensor(ranges);

  std::vector<double> out(expect.size() + 1, -1.0);
  const std::span<double> dest(out.data(), expect.size());
  pario::detail::read_blocked_ranges_into(file, dims, grid, offsets, ranges,
                                          {}, dest);
  EXPECT_EQ(testing::max_diff(expect.data(), out.data(), expect.size()), 0.0);
  EXPECT_EQ(out.back(), -1.0);  // nothing past the request is written

  // One element short or one over, through the read core and through
  // BlockFile: each is rejected before a byte lands in the destination.
  std::fill(out.begin(), out.end(), -1.0);
  for (const std::span<double> wrong :
       {dest.first(expect.size() - 1), std::span<double>(out)}) {
    EXPECT_THROW(pario::detail::read_blocked_ranges_into(
                     file, dims, grid, offsets, ranges, {}, wrong),
                 InvalidArgument);
    EXPECT_THROW(pario::BlockFile::open(path).read_ranges_into(ranges, wrong),
                 InvalidArgument);
  }
  for (double v : out) EXPECT_EQ(v, -1.0);
  std::filesystem::remove(path);
}

TEST(ParIo, RedistributingReadPreadsEachFileContiguousRangeOnce) {
  // 6x5x4 written on 2x2x1: blocks [0,3)|[3,6) x [0,2)|[2,5) x [0,4).
  const std::string path = temp_path("ptucker_pread_count.ptb");
  const Dims dims{6, 5, 4};
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    DistTensor x(grid, dims);
    x.fill_global(testing::splitmix_field(17));
    pario::write_dist_tensor(path, x);
  });
  Tensor t(dims);
  t.fill_from(testing::splitmix_field(17));

  // The v2 header: magic, version, order, dims[3], grid[3], then the offset
  // table and the CRC table, one u64 per block each.
  const pario::File file = pario::File::open_read(path);
  const std::vector<int> grid{2, 2, 1};
  pario::detail::HeaderReader header(file, 4 + 8 * (2 + 2 * dims.size()));
  const std::vector<std::uint64_t> offsets = header.u64s(4);
  const std::vector<std::uint64_t> crcs = header.u64s(4);
  std::vector<std::uint64_t> packed =
      pario::detail::block_offsets(dims, grid, header.pos());
  packed.pop_back();  // the data end
  ASSERT_EQ(offsets, packed);

  const obs::Counter reads = obs::registry().counter("pario.reads");
  const obs::Counter checked = obs::registry().counter("pario.crc_checked");
  struct Case {
    std::vector<util::Range> ranges;
    std::uint64_t preads;
    std::uint64_t crcs_checked;
  };
  const Case cases[] = {
      // Whole tensor: every block is covered, one pread and one CRC each.
      {{{0, 6}, {0, 5}, {0, 4}}, 4, 4},
      // Only the last mode cut: one range per block touched.
      {{{0, 6}, {0, 5}, {1, 3}}, 4, 0},
      {{{0, 6}, {0, 2}, {1, 3}}, 2, 0},
      // Mode 1 cut (k = 1): one range per mode-2 index, 4 per block.
      {{{0, 6}, {1, 4}, {0, 4}}, 16, 0},
      // Mode 0 cut (k = 0): one range per mode-0 run, 2x4 and 3x4 per block
      // column.
      {{{1, 5}, {0, 5}, {0, 4}}, 40, 0},
  };
  for (const Case& c : cases) {
    const Tensor expect = t.subtensor(c.ranges);
    Tensor out(expect.dims());
    const std::uint64_t reads0 = reads.value();
    const std::uint64_t checked0 = checked.value();
    pario::detail::read_blocked_ranges_into(file, dims, grid, offsets,
                                            c.ranges, crcs, out.span());
    EXPECT_EQ(reads.value() - reads0, c.preads) << c.preads;
    EXPECT_EQ(checked.value() - checked0, c.crcs_checked) << c.preads;
    EXPECT_EQ(testing::max_diff(expect, out), 0.0) << c.preads;
  }
  std::filesystem::remove(path);
}

TEST(ParIo, Ptz1LoadOntoDifferentGridIsBitExact) {
  const std::string path = temp_path("ptucker_model_par.ptz");
  Tensor saved_core;
  std::vector<tensor::Matrix> saved_factors;
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 7, 6}, Dims{3, 2, 2}, 3, 0.0);
    core::SthosvdOptions opts;
    opts.epsilon = 1e-8;
    const TuckerTensor model = core::st_hosvd(x, opts).tucker;
    core::save_tucker(path, model);
    const Tensor core = model.core.gather(0);
    if (comm.rank() == 0) {
      saved_core = core;
      saved_factors = model.factors;
    }
  });
  // Loaded onto a different grid, the model is the saved one bit for bit.
  run_ranks(6, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {3, 1, 2});
    const TuckerTensor loaded = core::load_tucker(path, grid);
    ASSERT_EQ(loaded.factors.size(), saved_factors.size());
    for (std::size_t n = 0; n < loaded.factors.size(); ++n) {
      EXPECT_EQ(testing::max_diff(loaded.factors[n], saved_factors[n]), 0.0);
    }
    const Tensor core = loaded.core.gather(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(core.dims(), saved_core.dims());
      EXPECT_EQ(testing::max_diff(core, saved_core), 0.0);
    }
  });
  std::filesystem::remove(path);
}

TEST(ParIo, Ptz1SaveLoadMovesZeroWords) {
  const std::string path = temp_path("ptucker_model_zero.ptz");
  mps::Runtime rt(4);
  std::vector<TuckerTensor> models(4);
  rt.run([&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 7, 6}, Dims{3, 2, 2}, 11, 0.0);
    core::SthosvdOptions opts;
    opts.epsilon = 1e-8;
    models[static_cast<std::size_t>(comm.rank())] =
        core::st_hosvd(x, opts).tucker;
  });
  rt.reset_stats();  // count only save + load
  rt.run([&](mps::Comm& comm) {
    const TuckerTensor& model = models[static_cast<std::size_t>(comm.rank())];
    core::save_tucker(path, model);
    const TuckerTensor loaded =
        core::load_tucker(path, model.core.grid_ptr());
    EXPECT_EQ(loaded.core_dims(), model.core_dims());
    EXPECT_EQ(testing::max_diff(loaded.core.local(), model.core.local()),
              0.0);
  });
  expect_only_barrier_traffic(rt);
  std::filesystem::remove(path);
}

TEST(ParIo, Ptz1ArchivesNormalizationStats) {
  const std::string path = temp_path("ptucker_model_stats.ptz");
  run_ranks(4, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{8, 7, 5}, Dims{3, 2, 2}, 19, 0.0);
    core::SthosvdOptions opts;
    opts.epsilon = 1e-8;
    const TuckerTensor model = core::st_hosvd(x, opts).tucker;
    data::NormalizationStats stats;
    stats.species_mode = 2;
    stats.mean = {1.0, 2.0, 3.0, 4.0, 5.0};
    stats.stdev = {0.1, 0.2, 0.3, 0.4, 0.5};
    pario::write_model(path, model.core,
                       std::span<const tensor::Matrix>(model.factors),
                       &stats);
    const pario::ModelData loaded = pario::read_model(path, grid);
    EXPECT_TRUE(loaded.has_stats);
    EXPECT_EQ(loaded.stats.species_mode, 2);
    EXPECT_EQ(loaded.stats.mean, stats.mean);
    EXPECT_EQ(loaded.stats.stdev, stats.stdev);
    EXPECT_EQ(testing::max_diff(loaded.core.local(), model.core.local()),
              0.0);
  });
  std::filesystem::remove(path);
}

TEST(ParIo, SerializedBytesMatchesFileSize) {
  // serialized_bytes must follow what save_tucker writes: the version-2
  // PTZ1 header with its per-block and factor CRCs.
  const std::string path = temp_path("ptucker_model_sz.ptz");
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, {2, 1});
    const DistTensor x =
        data::make_low_rank(grid, Dims{10, 8}, Dims{3, 2}, 7, 0.0);
    core::SthosvdOptions opts;
    opts.epsilon = 1e-8;
    const TuckerTensor model = core::st_hosvd(x, opts).tucker;
    core::save_tucker(path, model);
    if (comm.rank() == 0) {
      EXPECT_EQ(std::filesystem::file_size(path),
                core::serialized_bytes(model));
    }
  });
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ptucker
