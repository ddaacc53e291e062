#include "pario/layout.hpp"

#include <cstring>
#include <memory>

#include "obs/registry.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"

namespace ptucker::pario::detail {

namespace {

/// Coordinates of grid rank \p b (coordinate 0 fastest, as in CartGrid).
std::vector<int> grid_coords(const std::vector<int>& grid, int b) {
  std::vector<int> coords(grid.size());
  for (std::size_t n = 0; n < grid.size(); ++n) {
    coords[n] = b % grid[n];
    b /= grid[n];
  }
  return coords;
}

int grid_size(const std::vector<int>& grid) {
  int p = 1;
  for (int e : grid) p *= e;
  return p;
}

struct CrcCounters {
  obs::Counter checked;
  obs::Counter failures;
};

CrcCounters& crc_counters() {
  static CrcCounters* c = [] {
    auto* t = new CrcCounters;
    t->checked = obs::registry().counter("pario.crc_checked");
    t->failures = obs::registry().counter("pario.crc_failures");
    return t;
  }();
  return *c;
}

/// Per-mode sizes of the request \p ranges of a tensor with \p dims; throws
/// InvalidArgument unless there is one in-bounds range (lo <= hi <= dims[n])
/// per mode.
tensor::Dims request_dims(const tensor::Dims& dims,
                          const std::vector<util::Range>& ranges) {
  PT_REQUIRE(ranges.size() == dims.size(),
             "read_blocked_ranges: one range per mode");
  tensor::Dims sizes(dims.size());
  for (std::size_t n = 0; n < dims.size(); ++n) {
    PT_REQUIRE(ranges[n].lo <= ranges[n].hi && ranges[n].hi <= dims[n],
               "read_blocked_ranges: range out of bounds in mode " << n);
    sizes[n] = ranges[n].size();
  }
  return sizes;
}

}  // namespace

void verify_crc32c(const char* container, const File& file,
                   const std::string& what, std::uint64_t offset,
                   std::uint64_t stored, std::uint32_t computed) {
  crc_counters().checked.inc();
  if (stored == computed) return;
  crc_counters().failures.inc();
  std::ostringstream os;
  os << container << ": checksum mismatch in " << what << " of " << file.path()
     << " at offset " << offset << " (stored crc32c 0x" << std::hex
     << stored << ", computed 0x" << computed << std::dec
     << ") — silent corruption or a torn write";
  throw ChecksumError(os.str());
}

void write_block(const std::string& path, std::uint64_t crc_slot,
                 std::uint64_t offset, const tensor::Tensor& block) {
  if (block.size() == 0) return;
  const std::size_t bytes = block.size() * sizeof(double);
  const std::uint64_t c64 = util::crc32c(0, block.data(), bytes);
  const File f = File::open_write(path);
  f.write_at(crc_slot, &c64, sizeof(c64));
  f.write_at(offset, block.data(), bytes);
}

std::vector<util::Range> block_ranges(const tensor::Dims& dims,
                                      const std::vector<int>& grid, int b) {
  PT_CHECK(dims.size() == grid.size(), "block_ranges: dims/grid order");
  const std::vector<int> coords = grid_coords(grid, b);
  std::vector<util::Range> ranges(dims.size());
  for (std::size_t n = 0; n < dims.size(); ++n) {
    ranges[n] = util::uniform_block(dims[n], static_cast<std::size_t>(grid[n]),
                                    static_cast<std::size_t>(coords[n]));
  }
  return ranges;
}

std::uint64_t block_elements(const tensor::Dims& dims,
                             const std::vector<int>& grid, int b) {
  std::uint64_t count = 1;
  for (const util::Range& r : block_ranges(dims, grid, b)) {
    count = util::checked_mul(count, r.size(), "pario: block_elements");
  }
  return count;
}

std::vector<std::uint64_t> block_offsets(const tensor::Dims& dims,
                                         const std::vector<int>& grid,
                                         std::uint64_t base) {
  const int p = grid_size(grid);
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(p) + 1);
  offsets[0] = base;
  for (int b = 0; b < p; ++b) {
    const std::uint64_t bytes = util::checked_mul(
        sizeof(double), block_elements(dims, grid, b), "pario: block_offsets");
    offsets[static_cast<std::size_t>(b) + 1] = util::checked_add(
        offsets[static_cast<std::size_t>(b)], bytes, "pario: block_offsets");
  }
  return offsets;
}

void read_blocked_ranges_into(const File& file, const tensor::Dims& dims,
                              const std::vector<int>& grid,
                              const std::vector<std::uint64_t>& offsets,
                              const std::vector<util::Range>& ranges,
                              const std::vector<std::uint64_t>& block_crcs,
                              std::span<double> out) {
  const std::size_t order = dims.size();
  const tensor::Dims out_dims = request_dims(dims, ranges);
  std::size_t out_size = 1;
  for (std::size_t d : out_dims) out_size *= d;
  PT_REQUIRE(out.size() == out_size,
             "read_blocked_ranges: destination holds "
                 << out.size() << " elements, the request " << out_size);
  if (out_size == 0) return;

  // Per-call scratch for the file-contiguous ranges, grown only. A local,
  // not a member of the File or of a reader: concurrent callers share those.
  std::unique_ptr<double[]> scratch;
  std::size_t scratch_size = 0;
  const int p = grid_size(grid);
  for (int b = 0; b < p; ++b) {
    const std::vector<util::Range> block = block_ranges(dims, grid, b);

    // Intersection of the request with this block.
    std::vector<util::Range> is(order);
    bool empty = false;
    bool whole = true;    // intersection == block == request
    bool covered = true;  // intersection == block (crc verifiable)
    for (std::size_t n = 0; n < order; ++n) {
      is[n] = {std::max(ranges[n].lo, block[n].lo),
               std::min(ranges[n].hi, block[n].hi)};
      if (is[n].lo >= is[n].hi) {
        empty = true;
        break;
      }
      covered = covered && is[n].lo == block[n].lo && is[n].hi == block[n].hi;
      whole = whole && covered && is[n].lo == ranges[n].lo &&
              is[n].hi == ranges[n].hi;
    }
    if (empty) continue;

    const bool verify =
        covered && static_cast<std::size_t>(b) < block_crcs.size();
    const std::uint64_t block_base = offsets[static_cast<std::size_t>(b)];
    // Check the whole block, as read into `data`, against its stored CRC.
    const auto verify_block = [&](const double* data, std::size_t count) {
      verify_crc32c("pario", file, "block " + std::to_string(b), block_base,
                    block_crcs[static_cast<std::size_t>(b)],
                    util::crc32c(0, data, count * sizeof(double)));
    };
    if (whole) {  // grid-matched fast path: the block IS the request
      file.read_at(block_base, out.data(), out_size * sizeof(double));
      if (verify) verify_block(out.data(), out_size);
      return;
    }

    // Strides of the block's dense layout and of the destination.
    std::vector<std::uint64_t> bstride(order), ostride(order);
    std::uint64_t bs = 1;
    std::uint64_t os = 1;
    for (std::size_t n = 0; n < order; ++n) {
      bstride[n] = bs;
      ostride[n] = os;
      bs *= block[n].size();
      os *= out_dims[n];
    }

    // k = the leading modes on which the intersection spans the whole
    // block, capped at the last mode. The intersection is then
    // prod_{n>k} file-contiguous ranges of the block, each is[k] x
    // prod_{n<k} block[n] elements; a covered block is one range, the
    // whole block. Each range is one pread into the scratch, whose mode-0
    // runs are then copied into `out`.
    std::size_t k = 0;
    while (k + 1 < order && is[k].size() == block[k].size()) ++k;
    const std::size_t chunk = is[k].size() * bstride[k];
    if (chunk > scratch_size) {
      scratch.reset();  // never hold the old and the new scratch at once
      scratch = std::make_unique_for_overwrite<double[]>(chunk);
      scratch_size = chunk;
    }
    std::size_t runs_per_range = 1;
    for (std::size_t n = 1; n <= k; ++n) runs_per_range *= is[n].size();

    const std::size_t run = is[0].size();
    std::uint64_t src0 = is[0].lo - block[0].lo;
    std::uint64_t dst0 = is[0].lo - ranges[0].lo;
    std::vector<std::size_t> idx(order, 0);  // tail index within is[1..]
    std::size_t runs = 1;
    for (std::size_t n = 1; n < order; ++n) runs *= is[n].size();
    std::uint64_t range_src = 0;
    for (std::size_t r = 0; r < runs; ++r) {
      std::uint64_t src = src0;
      std::uint64_t dst = dst0;
      for (std::size_t n = 1; n < order; ++n) {
        src += (is[n].lo - block[n].lo + idx[n]) * bstride[n];
        dst += (is[n].lo - ranges[n].lo + idx[n]) * ostride[n];
      }
      if (r % runs_per_range == 0) {  // the first run of the next range
        range_src = src;
        file.read_at(block_base + src * sizeof(double), scratch.get(),
                     chunk * sizeof(double));
        // Covered: the one range is the whole block.
        if (verify) verify_block(scratch.get(), chunk);
      }
      std::memcpy(out.data() + dst, scratch.get() + (src - range_src),
                  run * sizeof(double));
      for (std::size_t n = 1; n < order; ++n) {
        if (++idx[n] < is[n].size()) break;
        idx[n] = 0;
      }
    }
  }
}

tensor::Tensor read_blocked_ranges(const File& file, const tensor::Dims& dims,
                                   const std::vector<int>& grid,
                                   const std::vector<std::uint64_t>& offsets,
                                   const std::vector<util::Range>& ranges,
                                   const std::vector<std::uint64_t>& block_crcs) {
  tensor::Tensor out(request_dims(dims, ranges));
  read_blocked_ranges_into(file, dims, grid, offsets, ranges, block_crcs,
                           out.span());
  return out;
}

/// --- header (de)serialization -------------------------------------------------

void HeaderWriter::magic(const char m[4]) { buf_.insert(buf_.end(), m, m + 4); }

void HeaderWriter::u64(std::uint64_t v) {
  const char* p = reinterpret_cast<const char*>(&v);
  buf_.insert(buf_.end(), p, p + sizeof(v));
}

void HeaderWriter::u64s(const std::vector<std::uint64_t>& v) {
  for (std::uint64_t x : v) u64(x);
}

void HeaderWriter::f64s(const double* data, std::size_t count) {
  const char* p = reinterpret_cast<const char*>(data);
  buf_.insert(buf_.end(), p, p + count * sizeof(double));
}

bool HeaderReader::try_magic(const char m[4]) {
  char buf[4] = {};
  file_.read_at(pos_, buf, 4);
  if (std::memcmp(buf, m, 4) != 0) return false;
  pos_ += 4;
  return true;
}

void HeaderReader::expect_magic(const char m[4]) {
  PT_REQUIRE(try_magic(m), "pario: bad magic in " << file_.path()
                                                  << " (expected "
                                                  << std::string(m, 4) << ")");
}

std::uint64_t HeaderReader::u64() {
  std::uint64_t v = 0;
  file_.read_at(pos_, &v, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

std::vector<std::uint64_t> HeaderReader::u64s(std::size_t count) {
  std::vector<std::uint64_t> v(count);
  if (count > 0) file_.read_at(pos_, v.data(), count * sizeof(std::uint64_t));
  pos_ += count * sizeof(std::uint64_t);
  return v;
}

void HeaderReader::f64s(double* out, std::size_t count) {
  if (count > 0) file_.read_at(pos_, out, count * sizeof(double));
  pos_ += count * sizeof(double);
}

std::vector<int> read_grid_shape(HeaderReader& reader, std::uint64_t order,
                                 const File& file) {
  const auto grid64 = reader.u64s(order);
  std::vector<int> grid(order);
  std::uint64_t ranks = 1;
  for (std::uint64_t n = 0; n < order; ++n) {
    PT_REQUIRE(grid64[n] >= 1 && grid64[n] <= kMaxGridRanks,
               "pario: implausible grid extent in " << file.path());
    grid[n] = static_cast<int>(grid64[n]);
    ranks *= grid64[n];
    PT_REQUIRE(ranks <= kMaxGridRanks,
               "pario: implausible grid in " << file.path());
  }
  return grid;
}

void validate_blocked_header(const char* what, const File& file,
                             const tensor::Dims& dims,
                             const std::vector<int>& grid,
                             const std::vector<std::uint64_t>& offsets,
                             std::uint64_t header_end, std::uint64_t limit) {
  PT_REQUIRE(!dims.empty() && dims.size() <= kMaxOrder,
             what << ": implausible order " << dims.size() << " in "
                  << file.path());
  PT_REQUIRE(dims.size() == grid.size(),
             what << ": dims/grid order mismatch in " << file.path());
  // Bound the dims before any size arithmetic: past this check every
  // element/byte product in the readers is exact in 64 bits.
  std::uint64_t elements = 1;
  for (std::size_t d : dims) {
    const std::uint64_t factor = std::max<std::uint64_t>(d, 1);
    PT_REQUIRE(d <= kMaxElements && elements <= kMaxElements / factor,
               what << ": implausible dims in " << file.path());
    elements *= factor;
  }
  std::uint64_t ranks = 1;
  for (int e : grid) {
    PT_REQUIRE(e >= 1, what << ": grid extent " << e << " < 1 in "
                            << file.path());
    ranks *= static_cast<std::uint64_t>(e);
    PT_REQUIRE(ranks <= kMaxGridRanks,
               what << ": implausible grid in " << file.path());
  }
  PT_REQUIRE(offsets.size() == ranks,
             what << ": offset table size mismatch in " << file.path());
  PT_REQUIRE(limit <= file.size(),
             what << ": blob limit past the end of " << file.path());
  for (std::uint64_t b = 0; b < ranks; ++b) {
    const std::uint64_t bytes =
        sizeof(double) * block_elements(dims, grid, static_cast<int>(b));
    PT_REQUIRE(offsets[b] >= header_end &&
                   offsets[b] + bytes >= offsets[b] &&  // no wraparound
                   offsets[b] + bytes <= limit,
               what << ": block " << b << " extends past the end of "
                    << file.path() << " (truncated or corrupt header)");
  }
}

}  // namespace ptucker::pario::detail
