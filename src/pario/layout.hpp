#pragma once
/// \file layout.hpp
/// \brief Shared machinery of the chunked containers (PTB1 / PTZ1): the
/// block-offset table of a tensor split over a grid, header (de)serialization
/// helpers, the per-rank block write, and the positioned-read of an
/// arbitrary hyper-rectangle out of a blocked layout.
///
/// A "blocked layout" stores the uniform_block sub-tensor of every grid rank
/// contiguously (first-index-fastest within the block), in grid-rank order
/// (coordinate 0 fastest — the CartGrid linearization). Offsets are
/// deterministic functions of dims + grid, so a writer rank needs no
/// communication to find its slot; the table is still stored in file headers
/// so readers on *other* grids can locate the runs they need and so
/// truncation is detectable without trusting arithmetic on corrupt fields.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pario/posix_file.hpp"
#include "tensor/tensor.hpp"
#include "util/blocks.hpp"

namespace ptucker::pario::detail {

/// Per-mode global index ranges of block \p b of \p dims split over \p grid.
[[nodiscard]] std::vector<util::Range> block_ranges(
    const tensor::Dims& dims, const std::vector<int>& grid, int b);

/// Element count of block \p b.
[[nodiscard]] std::uint64_t block_elements(const tensor::Dims& dims,
                                           const std::vector<int>& grid,
                                           int b);

/// Byte offsets of every block when the blocks are packed contiguously in
/// grid-rank order starting at \p base. Returns prod(grid) + 1 entries; the
/// last is one past the final block (the data end).
[[nodiscard]] std::vector<std::uint64_t> block_offsets(
    const tensor::Dims& dims, const std::vector<int>& grid,
    std::uint64_t base);

/// Read the hyper-rectangle \p ranges of the global tensor out of a blocked
/// layout via positioned reads only, into the caller's buffer \p out, a
/// dense first-index-fastest array whose dims are the range sizes. A
/// request matching one block exactly is a single pread straight into
/// \p out. Otherwise every block intersecting the request is read as its
/// file-contiguous ranges, one pread each into a per-call scratch, and the
/// mode-0 runs are copied out of it: with k the leading modes on which the
/// intersection spans the whole block, there are prod_{n>k} ranges, so a
/// block the request covers is one pread. The scratch never exceeds one
/// block. \p out must hold exactly the request's element count
/// (InvalidArgument otherwise, before any byte is read). This is the one
/// read core of every blocked container: the PTB1 and PTZ1 readers and the
/// timestep reader pass the block (or time slab) they are about to fill, so
/// a read allocates its destination once.
///
/// \p block_crcs (one stored CRC32C per block, from a version-2 header)
/// arms verification: any block *fully covered* by the request is checked
/// once against its stored checksum, over the one pread that read it, and
/// mismatches throw ChecksumError naming the file, block, and byte offset.
/// Blocks only partially intersected by a redistribution read cannot be
/// verified this way and are passed through unchecked — grid-matched reads
/// (the serve path, local reconstruction) always cover whole blocks and are
/// always verified. Empty = version-1 file, no verification.
void read_blocked_ranges_into(const File& file, const tensor::Dims& dims,
                              const std::vector<int>& grid,
                              const std::vector<std::uint64_t>& offsets,
                              const std::vector<util::Range>& ranges,
                              const std::vector<std::uint64_t>& block_crcs,
                              std::span<double> out);

/// read_blocked_ranges_into, but into a freshly allocated tensor of the
/// request's dims, for callers with no destination of their own.
[[nodiscard]] tensor::Tensor read_blocked_ranges(
    const File& file, const tensor::Dims& dims, const std::vector<int>& grid,
    const std::vector<std::uint64_t>& offsets,
    const std::vector<util::Range>& ranges,
    const std::vector<std::uint64_t>& block_crcs = {});

/// Write one rank's block of a blocked layout: its CRC32C into the u64 slot
/// at \p crc_slot, then its payload at \p offset, both absolute positions in
/// \p path. The step every rank takes between the two barriers of the PTB1
/// and PTZ1 writers. An empty block writes nothing: its zero-filled slot
/// already holds the crc32c of zero bytes.
void write_block(const std::string& path, std::uint64_t crc_slot,
                 std::uint64_t offset, const tensor::Tensor& block);

/// Compare \p computed against the whole u64 slot \p stored (writers store
/// the CRC zero-extended, so a set high bit is corruption too); throws
/// ChecksumError naming the container, region, file, and payload byte
/// offset on mismatch.
/// Counts pario.crc_checked / pario.crc_failures.
void verify_crc32c(const char* container, const File& file,
                   const std::string& what, std::uint64_t offset,
                   std::uint64_t stored, std::uint32_t computed);

/// --- header (de)serialization -------------------------------------------------

/// Append-only little-endian header builder.
class HeaderWriter {
 public:
  void magic(const char m[4]);
  void u64(std::uint64_t v);
  void u64s(const std::vector<std::uint64_t>& v);
  void f64s(const double* data, std::size_t count);
  [[nodiscard]] const std::vector<char>& bytes() const { return buf_; }
  [[nodiscard]] std::uint64_t size() const { return buf_.size(); }

 private:
  std::vector<char> buf_;
};

/// Sequential positioned reader with bounds-checked primitives. \p start
/// positions the reader at an arbitrary byte (a blob inside a container;
/// 0 = whole-file headers).
class HeaderReader {
 public:
  explicit HeaderReader(const File& file, std::uint64_t start = 0)
      : file_(file), pos_(start) {}
  /// Read 4 magic bytes without consuming unless they match; returns match.
  [[nodiscard]] bool try_magic(const char m[4]);
  void expect_magic(const char m[4]);
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::vector<std::uint64_t> u64s(std::size_t count);
  void f64s(double* out, std::size_t count);
  [[nodiscard]] std::uint64_t pos() const { return pos_; }

 private:
  const File& file_;
  std::uint64_t pos_ = 0;
};

/// Sanity bounds applied when parsing untrusted headers.
inline constexpr std::uint64_t kMaxOrder = 64;
inline constexpr std::uint64_t kMaxGridRanks = 1u << 22;
/// Ceiling on total (and per-mode) element counts: 2^48 doubles = 2 PiB,
/// far above any real dataset but small enough that every size product in
/// the readers stays exact in 64 bits.
inline constexpr std::uint64_t kMaxElements = 1ull << 48;

/// Parse + validate a grid-shape field of \p order extents from \p reader
/// (extent bounds and prod(grid) <= kMaxGridRanks). Shared by every
/// container header that embeds a writer grid.
[[nodiscard]] std::vector<int> read_grid_shape(HeaderReader& reader,
                                               std::uint64_t order,
                                               const File& file);

/// Validate order/dims/grid fields parsed from a file and that every block's
/// payload [offsets[b], offsets[b] + bytes) lies within
/// [header_end, limit). \p limit is the file size for whole-file containers,
/// or the end of the enclosing blob for a model embedded in an archive (so a
/// truncated *entry* is detected even when later bytes exist in the file).
/// Throws InvalidArgument describing \p what on violation.
void validate_blocked_header(const char* what, const File& file,
                             const tensor::Dims& dims,
                             const std::vector<int>& grid,
                             const std::vector<std::uint64_t>& offsets,
                             std::uint64_t header_end, std::uint64_t limit);

}  // namespace ptucker::pario::detail
