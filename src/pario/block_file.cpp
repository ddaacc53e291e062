#include "pario/block_file.hpp"

namespace ptucker::pario {

namespace {
constexpr char kMagicBlock[4] = {'P', 'T', 'B', '1'};
constexpr char kMagicTensor[4] = {'P', 'T', 'T', '1'};
constexpr std::uint64_t kVersionPlain = 1;  // read-only: no checksums
constexpr std::uint64_t kVersionCrc = 2;    // + per-block CRC32C table

/// Byte offset of the crc table: magic + version + order + dims + grid +
/// offset table.
std::uint64_t ptb1_crc_table_offset(std::size_t order, std::uint64_t ranks) {
  return 4 + sizeof(std::uint64_t) * (2 + 2 * order + ranks);
}

/// Header bytes: everything up to the end of the crc table.
std::uint64_t ptb1_header_bytes(std::size_t order, std::uint64_t ranks) {
  return ptb1_crc_table_offset(order, ranks) + sizeof(std::uint64_t) * ranks;
}
}  // namespace

BlockFile BlockFile::open(const std::string& path) {
  BlockFile bf;
  bf.file_ = File::open_read(path);
  detail::HeaderReader reader(bf.file_);
  if (reader.try_magic(kMagicBlock)) {
    const std::uint64_t version = reader.u64();
    PT_REQUIRE(version == kVersionPlain || version == kVersionCrc,
               "pario: unsupported PTB1 version " << version << " in "
                                                  << path);
    const std::uint64_t order = reader.u64();
    PT_REQUIRE(order >= 1 && order <= detail::kMaxOrder,
               "pario: implausible order " << order << " in " << path);
    const auto dims64 = reader.u64s(order);
    bf.dims_.assign(dims64.begin(), dims64.end());
    bf.grid_ = detail::read_grid_shape(reader, order, bf.file_);
    std::uint64_t ranks = 1;
    for (int e : bf.grid_) ranks *= static_cast<std::uint64_t>(e);
    bf.offsets_ = reader.u64s(ranks);
    if (version == kVersionCrc) bf.crcs_ = reader.u64s(ranks);
    detail::validate_blocked_header("pario(PTB1)", bf.file_, bf.dims_,
                                    bf.grid_, bf.offsets_, reader.pos(),
                                    bf.file_.size());
  } else {
    // Legacy dense tensor file: one block covering everything.
    detail::HeaderReader treader(bf.file_);
    PT_REQUIRE(treader.try_magic(kMagicTensor),
               "pario: " << path << " is neither PTB1 nor PTT1");
    const std::uint64_t order = treader.u64();
    PT_REQUIRE(order >= 1 && order <= detail::kMaxOrder,
               "pario: implausible order " << order << " in " << path);
    const auto dims64 = treader.u64s(order);
    bf.dims_.assign(dims64.begin(), dims64.end());
    bf.grid_.assign(order, 1);
    bf.offsets_ = {treader.pos()};
    detail::validate_blocked_header("pario(PTT1)", bf.file_, bf.dims_,
                                    bf.grid_, bf.offsets_, treader.pos(),
                                    bf.file_.size());
  }
  return bf;
}

tensor::Tensor BlockFile::read_ranges(
    const std::vector<util::Range>& ranges) const {
  return detail::read_blocked_ranges(file_, dims_, grid_, offsets_, ranges,
                                     crcs_);
}

void BlockFile::read_ranges_into(const std::vector<util::Range>& ranges,
                                 std::span<double> out) const {
  detail::read_blocked_ranges_into(file_, dims_, grid_, offsets_, ranges,
                                   crcs_, out);
}

void save_tensor(const std::string& path, const tensor::Tensor& t) {
  detail::HeaderWriter w;
  w.magic(kMagicTensor);
  w.u64(static_cast<std::uint64_t>(t.order()));
  for (std::size_t d : t.dims()) w.u64(d);
  const File f = File::create(path);
  f.write_at(0, w.bytes().data(), w.bytes().size());
  f.write_at(w.size(), t.data(), t.size() * sizeof(double));
}

std::uint64_t ptb1_file_bytes(const tensor::Dims& dims,
                              const std::vector<int>& grid) {
  const auto offsets = detail::block_offsets(dims, grid, 0);
  return ptb1_header_bytes(dims.size(), offsets.size() - 1) + offsets.back();
}

void write_dist_tensor(const std::string& path, const dist::DistTensor& x) {
  const mps::Comm& comm = x.comm();
  const mps::CartGrid& grid = x.grid();
  const std::size_t order = x.global_dims().size();
  const std::uint64_t ranks = static_cast<std::uint64_t>(comm.size());
  const std::uint64_t header = ptb1_header_bytes(order, ranks);
  const auto offsets =
      detail::block_offsets(x.global_dims(), grid.shape(), header);

  if (comm.rank() == 0) {
    detail::HeaderWriter w;
    w.magic(kMagicBlock);
    w.u64(kVersionCrc);
    w.u64(static_cast<std::uint64_t>(order));
    for (std::size_t d : x.global_dims()) w.u64(d);
    for (int e : grid.shape()) w.u64(static_cast<std::uint64_t>(e));
    for (std::uint64_t b = 0; b < ranks; ++b) w.u64(offsets[b]);
    // crc slots are zero-filled here and overwritten by the owning ranks;
    // an empty block keeps 0, which is exactly crc32c of zero bytes.
    for (std::uint64_t b = 0; b < ranks; ++b) w.u64(0);
    PT_CHECK(w.size() == header, "pario: PTB1 header size mismatch");
    File f = File::create(path);
    f.write_at(0, w.bytes().data(), w.bytes().size());
    // Size the file up front so it is complete even when trailing blocks
    // are empty, and so concurrent block writes never race on extension.
    f.truncate(offsets.back());
  }
  comm.barrier();  // header visible before any block lands
  const auto rank = static_cast<std::uint64_t>(comm.rank());
  detail::write_block(
      path, ptb1_crc_table_offset(order, ranks) + sizeof(std::uint64_t) * rank,
      offsets[rank], x.local());
  comm.barrier();  // file complete before any rank returns
}

dist::DistTensor read_dist_tensor(std::shared_ptr<mps::CartGrid> grid,
                                  const std::string& path) {
  PT_REQUIRE(grid != nullptr, "read_dist_tensor: null grid");
  const BlockFile file = BlockFile::open(path);
  PT_REQUIRE(file.order() == grid->order(),
             "read_dist_tensor: file order " << file.order()
                                             << " != grid order "
                                             << grid->order());
  dist::DistTensor x(grid, file.dims());
  std::vector<util::Range> mine(file.dims().size());
  for (int n = 0; n < x.order(); ++n) {
    mine[static_cast<std::size_t>(n)] = x.mode_range(n);
  }
  file.read_ranges_into(mine, x.local().span());
  return x;
}

}  // namespace ptucker::pario
