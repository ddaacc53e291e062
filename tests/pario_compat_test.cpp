/// \file pario_compat_test.cpp
/// \brief Container format compatibility, pinned by the checked-in fixtures
/// in tests/data (see tests/data/README.md): version-1 PTB1/PTZ1/PTA1 files
/// and the PTT1 file stay readable, bit-exactly, on any grid; version-1
/// archives refuse appends; and the writers still emit exactly the
/// version-2 (and PTT1) bytes of the fixtures written from the same seeded
/// inputs.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "data/normalize.hpp"
#include "dist/grid.hpp"
#include "pario/archive_io.hpp"
#include "pario/block_file.hpp"
#include "pario/model_io.hpp"
#include "serve/query_server.hpp"
#include "tensor/matrix.hpp"
#include "test_utils.hpp"
#include "util/error.hpp"

namespace ptucker {
namespace {

using dist::DistTensor;
using tensor::Dims;
using tensor::Tensor;
using testing::run_ranks;

/// The seeded inputs of the fixtures (tests/data/README.md). Every value is
/// a direct seeded fill — no factorization runs — so the expected contents
/// are exact and do not depend on numerics.
namespace compat {

/// Grid every fixture was written on.
const std::vector<int> kWriteGrid{2, 1, 1};

/// PTB1: a 7 x 5 x 4 tensor (mode 0 split 4 + 3 over kWriteGrid).
const Dims kPtb1Dims{7, 5, 4};
constexpr std::uint64_t kPtb1Seed = 1801;

/// PTT1: a plain 7 x 5 x 4 tensor (one writer, no grid).
const Dims kPtt1Dims{7, 5, 4};
constexpr std::uint64_t kPtt1Seed = 1804;

/// PTZ1: a 3 x 2 x 2 core with 7 x 3, 5 x 2 and 4 x 2 factors, plus
/// per-species statistics over mode 2.
const Dims kPtz1CoreDims{3, 2, 2};
const Dims kPtz1Rows{7, 5, 4};
constexpr std::uint64_t kPtz1Seed = 1802;
constexpr int kPtz1SpeciesMode = 2;

/// PTA1: steps of 5 x 4 (species mode 1), three windows of two steps each,
/// primary table capacity 2 — so window 2 lands in a PTAC continuation.
const Dims kPta1StepDims{5, 4};
constexpr int kPta1SpeciesMode = 1;
constexpr std::size_t kPta1Capacity = 2;
constexpr std::size_t kPta1Windows = 3;
constexpr std::size_t kPta1Window = 2;
const Dims kPta1CoreDims{2, 2, 2};
constexpr std::uint64_t kPta1Seed = 1803;

/// eps recorded for archive window \p w.
double pta1_eps(std::size_t w) { return 1e-3 * static_cast<double>(w + 1); }

/// Seed of archive window \p w's model.
std::uint64_t pta1_seed(std::size_t w) { return kPta1Seed + 16 * w; }

/// Factor \p n of the model seeded with \p seed: u(i, j) from the splitmix
/// field of (i, j).
tensor::Matrix seeded_factor(std::uint64_t seed, std::size_t n,
                             std::size_t rows, std::size_t cols) {
  const auto field = testing::splitmix_field(seed + 1 + n);
  tensor::Matrix u(rows, cols);
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i < rows; ++i) {
      const std::size_t idx[2] = {i, j};
      u(i, j) = field(idx);
    }
  }
  return u;
}

/// All factors of the model seeded with \p seed: rows[n] x core_dims[n].
std::vector<tensor::Matrix> seeded_factors(std::uint64_t seed,
                                           const Dims& rows,
                                           const Dims& core_dims) {
  std::vector<tensor::Matrix> factors;
  for (std::size_t n = 0; n < rows.size(); ++n) {
    factors.push_back(seeded_factor(seed, n, rows[n], core_dims[n]));
  }
  return factors;
}

/// Statistics of \p count species: means in [-5, 5), stdevs in [1, 2).
data::NormalizationStats seeded_stats(std::uint64_t seed, int species_mode,
                                      std::size_t count) {
  const auto field = testing::splitmix_field(seed + 100);
  data::NormalizationStats stats;
  stats.species_mode = species_mode;
  for (std::size_t s = 0; s < count; ++s) {
    const std::size_t mean_idx[2] = {s, 0};
    const std::size_t stdev_idx[2] = {s, 1};
    stats.mean.push_back(10.0 * field(mean_idx));
    stats.stdev.push_back(1.5 + field(stdev_idx));
  }
  return stats;
}

/// The core of the model seeded with \p seed on \p grid.
DistTensor seeded_core(std::shared_ptr<mps::CartGrid> grid,
                       const Dims& core_dims, std::uint64_t seed) {
  DistTensor core(std::move(grid), core_dims);
  core.fill_global(testing::splitmix_field(seed));
  return core;
}

/// Factor rows of every archive window's model: the step dims, then time.
Dims pta1_rows() {
  Dims rows = kPta1StepDims;
  rows.push_back(kPta1Window);
  return rows;
}

}  // namespace compat

/// Grids every fixture is read on: the 1-rank grid, the writer's grid, and
/// a 2-rank grid that cuts a different mode (a redistributing read).
const std::vector<std::vector<int>> kReadGrids{{1, 1, 1}, {2, 1, 1}, {1, 2, 1}};

std::string fixture(const std::string& name) {
  return std::string(PTUCKER_TEST_DATA_DIR) + "/" + name;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t version_word(const std::string& path) {
  const std::vector<char> bytes = file_bytes(path);
  std::uint64_t v = 0;
  if (bytes.size() >= 12) std::memcpy(&v, bytes.data() + 4, sizeof(v));
  return v;
}

int ranks_of(const std::vector<int>& shape) {
  int p = 1;
  for (int e : shape) p *= e;
  return p;
}

bool bit_equal(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.dims() == b.dims() && bit_equal(a.data(), b.data(), a.size());
}

bool bit_equal(const std::vector<tensor::Matrix>& a,
               const std::vector<tensor::Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t n = 0; n < a.size(); ++n) {
    if (a[n].rows() != b[n].rows() || a[n].cols() != b[n].cols() ||
        !bit_equal(a[n].data(), b[n].data(), a[n].size())) {
      return false;
    }
  }
  return true;
}

bool bit_equal(const data::NormalizationStats& a,
               const data::NormalizationStats& b) {
  return a.species_mode == b.species_mode &&
         a.mean.size() == b.mean.size() && a.stdev.size() == b.stdev.size() &&
         bit_equal(a.mean.data(), b.mean.data(), a.mean.size()) &&
         bit_equal(a.stdev.data(), b.stdev.data(), a.stdev.size());
}

/// The seeded core of \p core_dims as one plain tensor.
Tensor seeded_core_local(const Dims& core_dims, std::uint64_t seed) {
  Tensor core(core_dims);
  core.fill_from(testing::splitmix_field(seed));
  return core;
}

/// Archive window \p w's model as archived: seeded core, factors and stats.
struct WindowModel {
  Tensor core;
  std::vector<tensor::Matrix> factors;
  data::NormalizationStats stats;
};

WindowModel window_model(std::size_t w) {
  const std::uint64_t seed = compat::pta1_seed(w);
  return {seeded_core_local(compat::kPta1CoreDims, seed),
          compat::seeded_factors(seed, compat::pta1_rows(),
                                 compat::kPta1CoreDims),
          compat::seeded_stats(
              seed, compat::kPta1SpeciesMode,
              compat::kPta1StepDims[compat::kPta1SpeciesMode])};
}

/// Collective: write all three fixture containers from their seeded inputs
/// on the writer grid — exactly the inputs the fixtures were made from.
void write_fixture_inputs(mps::Comm& comm, const std::string& ptb,
                          const std::string& ptz, const std::string& pta) {
  auto grid = dist::make_grid(comm, compat::kWriteGrid);
  DistTensor x(grid, compat::kPtb1Dims);
  x.fill_global(testing::splitmix_field(compat::kPtb1Seed));
  pario::write_dist_tensor(ptb, x);

  const DistTensor core =
      compat::seeded_core(grid, compat::kPtz1CoreDims, compat::kPtz1Seed);
  const auto factors = compat::seeded_factors(
      compat::kPtz1Seed, compat::kPtz1Rows, compat::kPtz1CoreDims);
  const auto stats = compat::seeded_stats(
      compat::kPtz1Seed, compat::kPtz1SpeciesMode,
      compat::kPtz1Rows[compat::kPtz1SpeciesMode]);
  pario::write_model(ptz, core, std::span<const tensor::Matrix>(factors),
                     &stats);

  pario::archive_create(pta, comm, compat::kPta1StepDims,
                        compat::kPta1SpeciesMode, compat::kPta1Capacity);
  for (std::size_t w = 0; w < compat::kPta1Windows; ++w) {
    const WindowModel m = window_model(w);
    const DistTensor wcore =
        compat::seeded_core(grid, compat::kPta1CoreDims, compat::pta1_seed(w));
    pario::archive_append_model(pta, w * compat::kPta1Window,
                                compat::pta1_eps(w), wcore,
                                std::span<const tensor::Matrix>(m.factors),
                                &m.stats);
  }
}

/// Byte-compare two files, reporting the first differing offset.
void expect_same_bytes(const std::string& got, const std::string& want) {
  const std::vector<char> a = file_bytes(got);
  const std::vector<char> b = file_bytes(want);
  ASSERT_EQ(a.size(), b.size()) << got << " vs " << want;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << got << " differs from " << want << " at byte "
                          << i;
  }
}

/// Read the tensor fixture \p path on every read grid and compare it bit for
/// bit with the splitmix field of \p seed; \p writer_grid is the grid its
/// header records.
void expect_tensor_fixture_reads(const std::string& path, const Dims& dims,
                                 const std::vector<int>& writer_grid,
                                 std::uint64_t seed) {
  const pario::BlockFile file = pario::BlockFile::open(path);
  EXPECT_EQ(file.dims(), dims);
  EXPECT_EQ(file.grid_shape(), writer_grid);
  for (const std::vector<int>& shape : kReadGrids) {
    run_ranks(ranks_of(shape), [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, shape);
      const DistTensor y = pario::read_dist_tensor(grid, path);
      DistTensor expect(grid, dims);
      expect.fill_global(testing::splitmix_field(seed));
      EXPECT_TRUE(bit_equal(y.local(), expect.local()))
          << path << " on grid " << testing::shape_name(shape) << " rank "
          << comm.rank();
    });
  }
}

TEST(Compat, Ptb1FixturesReadBitExactOnEveryGrid) {
  for (const std::uint64_t version : {1u, 2u}) {
    const std::string path =
        fixture("ptb1_v" + std::to_string(version) + ".ptb");
    ASSERT_EQ(version_word(path), version) << path;
    expect_tensor_fixture_reads(path, compat::kPtb1Dims, compat::kWriteGrid,
                                compat::kPtb1Seed);
  }
  // PTT1 reads as a one-block PTB1 through the same reader.
  expect_tensor_fixture_reads(fixture("ptt1.ptt"), compat::kPtt1Dims,
                              {1, 1, 1}, compat::kPtt1Seed);
}

TEST(Compat, Ptz1FixturesReadBitExactWithStats) {
  const auto factors = compat::seeded_factors(
      compat::kPtz1Seed, compat::kPtz1Rows, compat::kPtz1CoreDims);
  const auto stats = compat::seeded_stats(
      compat::kPtz1Seed, compat::kPtz1SpeciesMode,
      compat::kPtz1Rows[compat::kPtz1SpeciesMode]);
  for (const std::uint64_t version : {1u, 2u}) {
    const std::string path =
        fixture("ptz1_v" + std::to_string(version) + "_stats.ptz");
    ASSERT_EQ(version_word(path), version) << path;
    for (const std::vector<int>& shape : kReadGrids) {
      run_ranks(ranks_of(shape), [&](mps::Comm& comm) {
        auto grid = dist::make_grid(comm, shape);
        const pario::ModelData md = pario::read_model(path, grid);
        const DistTensor expect =
            compat::seeded_core(grid, compat::kPtz1CoreDims, compat::kPtz1Seed);
        EXPECT_TRUE(bit_equal(md.core.local(), expect.local()))
            << path << " on grid " << testing::shape_name(shape) << " rank "
            << comm.rank();
        EXPECT_TRUE(bit_equal(md.factors, factors)) << path;
        ASSERT_TRUE(md.has_stats) << path;
        EXPECT_TRUE(bit_equal(md.stats, stats)) << path;
      });
    }
    const pario::File file = pario::File::open_read(path);
    const pario::LocalModelData local =
        pario::read_model_local_at(file, 0, file.size());
    EXPECT_TRUE(bit_equal(local.core, seeded_core_local(compat::kPtz1CoreDims,
                                                        compat::kPtz1Seed)))
        << path;
    EXPECT_TRUE(bit_equal(local.factors, factors)) << path;
    ASSERT_TRUE(local.has_stats) << path;
    EXPECT_TRUE(bit_equal(local.stats, stats)) << path;
  }
}

TEST(Compat, Pta1FixturesChainAndReadBitExact) {
  for (const std::uint64_t version : {1u, 2u}) {
    const std::string path =
        fixture("pta1_v" + std::to_string(version) + "_chain.pta");
    ASSERT_EQ(version_word(path), version) << path;
    const pario::ArchiveReader reader(path);
    ASSERT_EQ(reader.entry_count(), compat::kPta1Windows) << path;
    EXPECT_EQ(reader.entry_capacity(), compat::kPta1Capacity);
    EXPECT_EQ(reader.total_capacity(), 2 * compat::kPta1Capacity)
        << path << ": the last window must sit in a continuation table";
    EXPECT_EQ(reader.step_dims(), compat::kPta1StepDims);
    EXPECT_EQ(reader.species_mode(), compat::kPta1SpeciesMode);
    for (std::size_t e = 0; e < compat::kPta1Windows; ++e) {
      EXPECT_EQ(reader.entry(e).step_first, e * compat::kPta1Window);
      EXPECT_EQ(reader.entry(e).step_count, compat::kPta1Window);
      EXPECT_EQ(reader.entry(e).eps, compat::pta1_eps(e));
    }
    for (const std::vector<int>& shape : kReadGrids) {
      run_ranks(ranks_of(shape), [&](mps::Comm& comm) {
        auto grid = dist::make_grid(comm, shape);
        for (std::size_t e = 0; e < compat::kPta1Windows; ++e) {
          const WindowModel want = window_model(e);
          const pario::ModelData md = reader.read_entry(e, grid);
          const DistTensor expect = compat::seeded_core(
              grid, compat::kPta1CoreDims, compat::pta1_seed(e));
          EXPECT_TRUE(bit_equal(md.core.local(), expect.local()))
              << path << " entry " << e << " on grid "
              << testing::shape_name(shape) << " rank " << comm.rank();
          EXPECT_TRUE(bit_equal(md.factors, want.factors)) << path;
          ASSERT_TRUE(md.has_stats) << path;
          EXPECT_TRUE(bit_equal(md.stats, want.stats)) << path;
        }
      });
    }
    // The grid-free loader assembles exactly a 1-rank distributed load.
    run_ranks(1, [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, {1, 1, 1});
      for (std::size_t e = 0; e < compat::kPta1Windows; ++e) {
        const pario::ModelData md = reader.read_entry(e, grid);
        const pario::LocalModelData local = reader.read_entry_local(e);
        EXPECT_TRUE(bit_equal(local.core, md.core.local()))
            << path << " entry " << e;
        EXPECT_TRUE(bit_equal(local.factors, md.factors)) << path;
        EXPECT_TRUE(bit_equal(local.stats, md.stats)) << path;
      }
    });
  }
}

/// Direct evaluation of archived step \p step at spatial index (i, j) from
/// the seeded window models, denormalized with the window's stats.
double seeded_value(const std::vector<WindowModel>& models, std::size_t i,
                    std::size_t j, std::uint64_t step) {
  const WindowModel& m = models[step / compat::kPta1Window];
  const std::size_t t = step % compat::kPta1Window;
  const Dims& r = compat::kPta1CoreDims;
  double v = 0.0;
  for (std::size_t c = 0; c < r[2]; ++c) {
    for (std::size_t b = 0; b < r[1]; ++b) {
      for (std::size_t a = 0; a < r[0]; ++a) {
        const std::size_t idx[3] = {a, b, c};
        v += m.core.at(idx) * m.factors[0](i, a) * m.factors[1](j, b) *
             m.factors[2](t, c);
      }
    }
  }
  static_assert(compat::kPta1SpeciesMode == 1, "species index is j");
  return v * m.stats.stdev[j] + m.stats.mean[j];
}

TEST(Compat, QueryServerAnswersFromVersionOneArchive) {
  const serve::QueryServer v1({fixture("pta1_v1_chain.pta")});
  const serve::QueryServer v2({fixture("pta1_v2_chain.pta")});
  const std::uint64_t steps = compat::kPta1Windows * compat::kPta1Window;
  ASSERT_EQ(v1.num_steps(0), steps);
  std::vector<WindowModel> models;
  for (std::size_t w = 0; w < compat::kPta1Windows; ++w) {
    models.push_back(window_model(w));
  }
  // Every step in full; then a box whose steps straddle the primary table
  // and the continuation entry.
  std::vector<serve::Request> requests(2);
  requests[0].step_hi = steps;
  requests[1].step_lo = 3;
  requests[1].step_hi = 6;
  requests[1].box = {{1, 4}, {2, 4}};
  for (const serve::Request& req : requests) {
    const Tensor got = v1.subtensor(req);
    EXPECT_TRUE(bit_equal(got, v2.subtensor(req)))
        << "v1 and v2 archives of the same models answer differently";
    const util::Range bi = req.box.empty() ? util::Range{0, 5} : req.box[0];
    const util::Range bj = req.box.empty() ? util::Range{0, 4} : req.box[1];
    ASSERT_EQ(got.dims(),
              (Dims{bi.size(), bj.size(), req.step_hi - req.step_lo}));
    for (std::uint64_t s = req.step_lo; s < req.step_hi; ++s) {
      for (std::size_t j = bj.lo; j < bj.hi; ++j) {
        for (std::size_t i = bi.lo; i < bi.hi; ++i) {
          const std::size_t idx[3] = {i - bi.lo, j - bj.lo, s - req.step_lo};
          EXPECT_NEAR(got.at(idx), seeded_value(models, i, j, s), 1e-12)
              << "step " << s << " at (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(Compat, AppendToVersionOneArchiveThrowsAndLeavesBytesUnchanged) {
  const std::string v1 = temp_path("ptucker_compat_append_v1.pta");
  const std::string v2 = temp_path("ptucker_compat_append_v2.pta");
  const auto overwrite = std::filesystem::copy_options::overwrite_existing;
  std::filesystem::copy_file(fixture("pta1_v1_chain.pta"), v1, overwrite);
  std::filesystem::copy_file(fixture("pta1_v2_chain.pta"), v2, overwrite);
  const std::vector<char> before = file_bytes(v1);
  const std::uint64_t next_step = compat::kPta1Windows * compat::kPta1Window;
  run_ranks(2, [&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, compat::kWriteGrid);
    const WindowModel m = window_model(compat::kPta1Windows);
    const DistTensor core = compat::seeded_core(
        grid, compat::kPta1CoreDims, compat::pta1_seed(compat::kPta1Windows));
    const std::span<const tensor::Matrix> factors(m.factors);
    try {
      pario::archive_append_model(v1, next_step, 1e-3, core, factors,
                                  &m.stats);
      ADD_FAILURE() << "append to a version-1 archive succeeded";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("version-1"), std::string::npos) << what;
    }
    // The same window appends to the version-2 twin.
    pario::archive_append_model(v2, next_step, 1e-3, core, factors, &m.stats);
  });
  EXPECT_EQ(file_bytes(v1), before);
  EXPECT_EQ(pario::ArchiveReader(v1).entry_count(), compat::kPta1Windows);
  EXPECT_EQ(pario::ArchiveReader(v2).entry_count(), compat::kPta1Windows + 1);
  std::filesystem::remove(v1);
  std::filesystem::remove(v2);
}

TEST(Compat, WritersByteMatchVersionTwoFixtures) {
  const std::string ptb = temp_path("ptucker_compat_out.ptb");
  const std::string ptz = temp_path("ptucker_compat_out.ptz");
  const std::string pta = temp_path("ptucker_compat_out.pta");
  const std::string ptt = temp_path("ptucker_compat_out.ptt");
  run_ranks(2, [&](mps::Comm& comm) {
    write_fixture_inputs(comm, ptb, ptz, pta);
  });
  Tensor t(compat::kPtt1Dims);
  t.fill_from(testing::splitmix_field(compat::kPtt1Seed));
  pario::save_tensor(ptt, t);
  expect_same_bytes(ptb, fixture("ptb1_v2.ptb"));
  expect_same_bytes(ptz, fixture("ptz1_v2_stats.ptz"));
  expect_same_bytes(pta, fixture("pta1_v2_chain.pta"));
  expect_same_bytes(ptt, fixture("ptt1.ptt"));
  // The size helpers describe what the writers emit.
  EXPECT_EQ(std::filesystem::file_size(ptb),
            pario::ptb1_file_bytes(compat::kPtb1Dims, compat::kWriteGrid));
  const auto factors = compat::seeded_factors(
      compat::kPtz1Seed, compat::kPtz1Rows, compat::kPtz1CoreDims);
  EXPECT_EQ(std::filesystem::file_size(ptz),
            pario::ptz1_file_bytes(
                compat::kPtz1CoreDims, compat::kWriteGrid,
                std::span<const tensor::Matrix>(factors),
                compat::kPtz1Rows[compat::kPtz1SpeciesMode]));
  std::filesystem::remove(ptb);
  std::filesystem::remove(ptz);
  std::filesystem::remove(pta);
  std::filesystem::remove(ptt);
}

}  // namespace
}  // namespace ptucker
