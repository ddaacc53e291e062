#pragma once
/// \file archive_io.hpp
/// \brief The PTA1 appendable time-partitioned model archive: one container
/// holding N PTZ1-style Tucker models, one per window of timesteps — the
/// paper's Sec. II in-situ workflow ("compress the simulation as it lands on
/// disk") archived as a single file instead of one model file per window,
/// as TuckerMPI frames the long-time-series use case.
///
/// Layout (little-endian):
///   "PTA1" | u64 version | u64 model order N (= step order + 1, time last)
///   | u64 step_dims[N-1]     spatial x species dims shared by every entry
///   | u64 species_mode       (u64)-1 when no species mode is declared
///   | u64 entry_capacity C   table slots preallocated at create
///   | u64 entry_count K      committed entries — THE commit point
///   | C x { u64 step_first | u64 step_count | f64 eps
///         | u64 byte_offset | u64 byte_count
///         | u64 slot_crc }                            the entry table
///   | entry payloads: each a complete PTZ1 blob (blob-relative offsets,
///     so an entry extracted byte-for-byte is a standalone PTZ1 file)
///
/// slot_crc is a CRC32C over the slot's first five fields, so a torn table
/// write can never masquerade as a valid entry. Writers emit version 2;
/// version-1 archives (5-u64 slots, no checksum, version-1 PTZ1 blobs) are
/// read-only: still read, but appends to them are rejected.
///
/// When the primary table fills, appends no longer stop: a *continuation
/// table* is materialized where the next blob would have gone —
///   "PTAC" | u64 capacity | u64 header_check | u64 entry_count
///   | capacity x slot
/// — and entries continue into it (blobs packed after the block, windows
/// still contiguous). Readers sniff the four bytes after the last committed
/// blob of a full table and follow the chain; anything that is not a valid
/// continuation header (short file, wrong magic, implausible capacity, bad
/// header_check) ends the chain exactly like a clean EOF, so a crash while
/// materializing a table is indistinguishable from never having grown.
/// header_check is a CRC32C over the magic and capacity (zero and unchecked
/// in version-1 archives); slots use the archive's slot format. ArchiveFull
/// is thrown only at the configurable process-wide hard cap
/// (set_archive_hard_cap).
///
/// Append protocol (collective): every rank parses the header independently
/// (deterministic, zero messages) and agrees on the placement; the payload
/// is then written block-parallel exactly like write_model (rank 0 writes
/// the blob header, every rank pwrites its own core block); finally rank 0
/// commits by writing table slot K and then entry_count = K + 1 — the only
/// rewritten bytes are that fixed-size table tail, so a crash anywhere
/// mid-append leaves the first K entries untouched and readable. The
/// payload is fsync'd before the commit so a committed entry is never
/// missing its bytes.
///
/// Reads are communication-free: every rank opens and validates the header
/// itself and preads only its own core blocks (ArchiveReader::read_entry),
/// exactly as read_model does for a standalone PTZ1 file.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pario/model_io.hpp"

namespace ptucker::pario {

/// One committed model of the archive: the window of global timesteps it
/// covers, the eps it was compressed to (the per-entry eq. 3 bound), and
/// the byte range of its PTZ1 blob.
struct ArchiveEntry {
  std::uint64_t step_first = 0;
  std::uint64_t step_count = 0;
  double eps = 0.0;
  std::uint64_t byte_offset = 0;
  std::uint64_t byte_count = 0;
  [[nodiscard]] std::uint64_t step_end() const {
    return step_first + step_count;
  }
};

/// Table slots preallocated by archive_create when not specified. 1024
/// entries cost 40 KiB of header — negligible next to any real payload.
inline constexpr std::size_t kDefaultArchiveCapacity = 1024;

/// Sentinel for "no species mode declared" in the shared header.
inline constexpr std::uint64_t kArchiveNoSpecies = ~0ull;

/// Process-wide ceiling on the total entry count an archive may grow to
/// across its continuation chain. Appends past the cap throw ArchiveFull;
/// the default is the format's structural limit (1 << 20 entries). Mostly a
/// testing and ops knob — it bounds how far a runaway producer can grow a
/// file before someone notices.
void set_archive_hard_cap(std::size_t cap);
[[nodiscard]] std::size_t archive_hard_cap();

/// Collective: create (truncating any existing file) an empty PTA1 archive
/// for models over steps of \p step_dims. \p species_mode declares which
/// spatial mode is the species mode (-1 = none); it is advisory — per-entry
/// normalization stats ride inside each PTZ1 blob as usual.
void archive_create(const std::string& path, const mps::Comm& comm,
                    const tensor::Dims& step_dims, int species_mode = -1,
                    std::size_t entry_capacity = kDefaultArchiveCapacity);

/// Collective: append one window model to the archive. The model's order
/// must be step order + 1 (time last); its spatial factor row counts must
/// match the archive's step_dims; its time factor rows give step_count.
/// Windows must be appended contiguously: step_first must equal the
/// archive's current step_end (0 for the first entry). \p eps is recorded
/// in the entry table as the window's eq. 3 bound. A version-1 archive is
/// rejected with InvalidArgument before any byte is written.
void archive_append_model(const std::string& path, std::uint64_t step_first,
                          double eps, const dist::DistTensor& core,
                          std::span<const tensor::Matrix> factors,
                          const data::NormalizationStats* stats = nullptr);

/// One window of a batched append: the same arguments archive_append_model
/// takes, by reference — the caller keeps the models alive for the call.
struct ArchiveWindow {
  std::uint64_t step_first = 0;
  double eps = 0.0;
  const dist::DistTensor* core = nullptr;
  std::span<const tensor::Matrix> factors;
  const data::NormalizationStats* stats = nullptr;
};

/// Collective: append K window models in one commit. The payloads are all
/// written first, then rank 0 commits every table slot and the new entry
/// counts under a single bracketing fsync pair — K windows cost the same
/// three syncs one window does, and a crash anywhere commits either all K
/// entries or none of them (payload bytes past the committed count are
/// unreferenced garbage). Windows must be mutually contiguous and continue
/// the archive's current step_end, exactly as K sequential single appends
/// would.
void archive_append_models(const std::string& path,
                           std::span<const ArchiveWindow> windows);

/// True when the file at \p path starts with the PTA1 magic.
[[nodiscard]] bool is_pta1(const std::string& path);

/// Parsed header + open descriptor of a PTA1 archive; read side.
/// Construction and reads are communication-free — every rank builds its
/// own reader and preads only the bytes of its own core blocks.
class ArchiveReader {
 public:
  explicit ArchiveReader(const std::string& path);

  /// Dims of one step (spatial x species, no time mode).
  [[nodiscard]] const tensor::Dims& step_dims() const { return step_dims_; }
  /// Declared species mode, -1 when none.
  [[nodiscard]] int species_mode() const;

  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }
  /// Slot count of the primary table (the archive_create capacity).
  [[nodiscard]] std::size_t entry_capacity() const { return capacity_; }
  /// Slot count summed over the primary table and every committed
  /// continuation table — how far the archive can grow without
  /// materializing another table.
  [[nodiscard]] std::size_t total_capacity() const { return total_capacity_; }
  [[nodiscard]] const std::vector<ArchiveEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] const ArchiveEntry& entry(std::size_t e) const {
    PT_REQUIRE(e < entries_.size(),
               "archive: entry " << e << " out of range");
    return entries_[e];
  }
  /// One past the last archived step (entries are contiguous from 0).
  [[nodiscard]] std::uint64_t step_end() const {
    return entries_.empty() ? 0 : entries_.back().step_end();
  }

  /// Indices of the entries whose step windows intersect [lo, hi),
  /// ascending. Throws when the range is empty or not fully covered.
  [[nodiscard]] std::vector<std::size_t> covering(std::uint64_t lo,
                                                  std::uint64_t hi) const;

  /// Load entry \p e onto \p grid (any grid of model order). Every rank
  /// preads its own core block — zero messages, as read_model.
  [[nodiscard]] ModelData read_entry(std::size_t e,
                                     std::shared_ptr<mps::CartGrid> grid)
      const;

  /// Grid-free load of entry \p e: the full core as one plain tensor, via
  /// read_model_local_at. No runtime, no collectives — safe from any thread
  /// (positioned reads on the shared descriptor); the serve layer's loader.
  /// Applies the same defense-in-depth shape checks as read_entry.
  [[nodiscard]] LocalModelData read_entry_local(std::size_t e) const;

 private:
  /// Shared defense-in-depth shape validation for both read paths.
  void check_entry_shape(std::size_t e,
                         std::span<const tensor::Matrix> factors) const;

  File file_;
  tensor::Dims step_dims_;
  std::uint64_t species_mode_ = kArchiveNoSpecies;
  std::size_t capacity_ = 0;
  std::size_t total_capacity_ = 0;
  std::vector<ArchiveEntry> entries_;
};

}  // namespace ptucker::pario
