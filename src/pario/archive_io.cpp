#include "pario/archive_io.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>

#include "pario/layout.hpp"
#include "util/crc32c.hpp"

namespace ptucker::pario {

namespace {
constexpr char kMagicArchive[4] = {'P', 'T', 'A', '1'};
constexpr std::uint64_t kVersionPlain = 1;  // read-only: 5-u64 slots
constexpr std::uint64_t kVersionCrc = 2;    // 6-u64 slots with slot_crc

/// Bytes of one entry-table slot: step_first, step_count, eps, byte_offset,
/// byte_count (eps is an f64, same width) — plus, in version 2, a CRC32C
/// over those five fields in the low 32 bits of a sixth u64.
std::uint64_t slot_bytes(bool crc) {
  return (crc ? 6 : 5) * sizeof(std::uint64_t);
}
constexpr std::uint64_t kSlotPayloadBytes = 5 * sizeof(std::uint64_t);

/// Ceiling on the table capacity a header may claim (a 2^20-slot table is
/// 40 MiB — far beyond any realistic run, small enough to parse safely).
constexpr std::uint64_t kMaxCapacity = 1ull << 20;

constexpr char kMagicCont[4] = {'P', 'T', 'A', 'C'};
/// Continuation-table prefix: magic + capacity + header_check + entry_count.
constexpr std::uint64_t kContPrefixBytes = 4 + 3 * sizeof(std::uint64_t);

std::atomic<std::size_t> g_archive_hard_cap{
    static_cast<std::size_t>(kMaxCapacity)};

/// Byte offset of the entry_count field (the commit point).
std::uint64_t count_field_offset(std::size_t step_order) {
  // magic + version + order + step_dims + species_mode + capacity
  return 4 + sizeof(std::uint64_t) * (2 + step_order + 2);
}

std::uint64_t slot_offset(std::size_t step_order, std::size_t slot,
                          bool crc) {
  return count_field_offset(step_order) + sizeof(std::uint64_t) +
         slot * slot_bytes(crc);
}

std::uint64_t archive_header_bytes(std::size_t step_order,
                                   std::uint64_t capacity, bool crc) {
  return slot_offset(step_order, capacity, crc);
}

/// One entry table of the chain: the primary (inside the PTA1 header) or a
/// PTAC continuation block materialized mid-file.
struct TableRef {
  std::uint64_t header_off = 0;  ///< file offset of the PTAC block (primary: 0)
  std::uint64_t capacity = 0;
  std::uint64_t count = 0;  ///< committed entries in this table
  bool primary = false;
};

std::uint64_t table_count_offset(const TableRef& t, std::size_t step_order) {
  return t.primary ? count_field_offset(step_order)
                   : t.header_off + 4 + 2 * sizeof(std::uint64_t);
}

std::uint64_t table_slot_offset(const TableRef& t, std::size_t step_order,
                                std::uint64_t slot, bool crc) {
  return t.primary ? slot_offset(step_order, slot, crc)
                   : t.header_off + kContPrefixBytes + slot * slot_bytes(crc);
}

std::uint64_t table_header_end(const TableRef& t, std::size_t step_order,
                               bool crc) {
  return table_slot_offset(t, step_order, t.capacity, crc);
}

/// Minimal parsed header state shared by the reader and the appender. Both
/// parse independently on every rank — the file is the only coordination.
struct ParsedArchive {
  tensor::Dims step_dims;
  std::uint64_t species_mode = kArchiveNoSpecies;
  std::uint64_t capacity = 0;  ///< primary-table capacity (the create arg)
  bool crc = false;            ///< version 2: checksummed table slots
  std::vector<TableRef> tables;  ///< primary first, then the followed chain
  std::vector<ArchiveEntry> entries;  ///< all committed entries, chain order
  std::uint64_t blob_end = 0;  ///< where the next blob (or table) would go
};

/// Sniff \p off for a continuation-table header. Returns false — chain ends,
/// exactly like a clean EOF — for anything a torn table *creation* could
/// leave behind: short file, wrong magic, implausible capacity, or a bad
/// header_check (version 2; version 1 writes zero and cannot check).
bool sniff_continuation(const File& file, std::uint64_t off, bool crc,
                        TableRef& out) {
  if (file.size() < off + kContPrefixBytes) return false;
  unsigned char hdr[kContPrefixBytes];
  file.read_at(off, hdr, kContPrefixBytes);
  if (std::memcmp(hdr, kMagicCont, 4) != 0) return false;
  std::uint64_t capacity = 0;
  std::uint64_t check = 0;
  std::memcpy(&capacity, hdr + 4, sizeof(capacity));
  std::memcpy(&check, hdr + 12, sizeof(check));
  if (capacity < 1 || capacity > kMaxCapacity) return false;
  if (crc && check != util::crc32c(0, hdr, 12)) return false;
  out.header_off = off;
  out.capacity = capacity;
  std::memcpy(&out.count, hdr + 20, sizeof(out.count));
  out.primary = false;
  return true;
}

/// Validate and collect table \p t's committed slots: blobs packed
/// contiguously from \p expect_offset (the table's header end), windows
/// contiguous from \p expect_step. Uncommitted slots are ignored (a crash
/// mid-append may have left a slot written with the count not yet bumped).
void parse_table_slots(const File& file, const TableRef& t,
                       std::size_t step_order, bool crc,
                       std::uint64_t& expect_offset,
                       std::uint64_t& expect_step,
                       std::vector<ArchiveEntry>& entries) {
  for (std::uint64_t i = 0; i < t.count; ++i) {
    const std::size_t e = entries.size();  // chain-global index, for messages
    const std::uint64_t off = table_slot_offset(t, step_order, i, crc);
    std::uint64_t v[6] = {};
    file.read_at(off, v, slot_bytes(crc));
    if (crc) {
      detail::verify_crc32c("pario(PTA1)", file,
                            "table slot " + std::to_string(e), off, v[5],
                            util::crc32c(0, v, kSlotPayloadBytes));
    }
    ArchiveEntry ent;
    ent.step_first = v[0];
    ent.step_count = v[1];
    std::memcpy(&ent.eps, &v[2], sizeof(double));
    ent.byte_offset = v[3];
    ent.byte_count = v[4];
    PT_REQUIRE(ent.step_first == expect_step && ent.step_count >= 1,
               "pario: entry " << e << " breaks the contiguous step order in "
                               << file.path());
    PT_REQUIRE(ent.byte_offset == expect_offset && ent.byte_count >= 1,
               "pario: entry " << e << " breaks the packed blob layout in "
                               << file.path());
    const std::uint64_t end = util::checked_add(
        ent.byte_offset, ent.byte_count, "pario: PTA1 entry end");
    PT_REQUIRE(end <= file.size(),
               "pario: entry " << e << " extends past the end of "
                               << file.path()
                               << " (truncated or corrupt archive)");
    expect_offset = end;
    expect_step = util::checked_add(ent.step_first, ent.step_count,
                                    "pario: PTA1 step range");
    entries.push_back(ent);
  }
}

ParsedArchive parse_archive(const File& file) {
  detail::HeaderReader reader(file);
  reader.expect_magic(kMagicArchive);
  const std::uint64_t version = reader.u64();
  PT_REQUIRE(version == kVersionPlain || version == kVersionCrc,
             "pario: unsupported PTA1 version " << version << " in "
                                                << file.path());
  const std::uint64_t order = reader.u64();
  PT_REQUIRE(order >= 2 && order <= detail::kMaxOrder,
             "pario: implausible model order " << order << " in "
                                               << file.path());
  const std::size_t step_order = static_cast<std::size_t>(order) - 1;
  const auto dims64 = reader.u64s(step_order);
  ParsedArchive a;
  a.step_dims.assign(dims64.begin(), dims64.end());
  std::uint64_t elements = 1;
  for (std::size_t d : a.step_dims) {
    const std::uint64_t factor = std::max<std::uint64_t>(d, 1);
    PT_REQUIRE(d >= 1 && d <= detail::kMaxElements &&
                   elements <= detail::kMaxElements / factor,
               "pario: implausible step dims in " << file.path());
    elements *= factor;
  }
  a.species_mode = reader.u64();
  PT_REQUIRE(a.species_mode == kArchiveNoSpecies ||
                 a.species_mode < step_order,
             "pario: implausible species mode in " << file.path());
  a.capacity = reader.u64();
  a.crc = version == kVersionCrc;
  PT_REQUIRE(a.capacity >= 1 && a.capacity <= kMaxCapacity,
             "pario: implausible table capacity in " << file.path());
  const std::uint64_t count = reader.u64();
  PT_REQUIRE(count <= a.capacity,
             "pario: entry count " << count << " exceeds capacity "
                                   << a.capacity << " in " << file.path());
  const std::uint64_t header_end =
      archive_header_bytes(step_order, a.capacity, a.crc);
  PT_REQUIRE(file.size() >= header_end,
             "pario: truncated PTA1 header in " << file.path());

  TableRef primary;
  primary.capacity = a.capacity;
  primary.count = count;
  primary.primary = true;
  std::uint64_t expect_offset = header_end;
  std::uint64_t expect_step = 0;
  parse_table_slots(file, primary, step_order, a.crc, expect_offset,
                    expect_step, a.entries);
  a.tables.push_back(primary);

  // Follow the continuation chain: a full table hands off to a PTAC block
  // at its last blob's end. A sniff miss there is the end of the chain —
  // a crash while materializing a table must look exactly like never having
  // grown. Once a header passes the sniff, though, its contents are
  // committed state and corruption is fatal, like any committed slot.
  while (a.tables.back().count == a.tables.back().capacity) {
    TableRef next;
    if (!sniff_continuation(file, expect_offset, a.crc, next)) break;
    PT_REQUIRE(next.count <= next.capacity,
               "pario: continuation entry count "
                   << next.count << " exceeds capacity " << next.capacity
                   << " in " << file.path());
    const std::uint64_t next_end =
        table_header_end(next, step_order, a.crc);
    if (next.count == 0 && file.size() < next_end) break;  // torn creation
    PT_REQUIRE(file.size() >= next_end,
               "pario: truncated continuation table in " << file.path());
    expect_offset = next_end;
    parse_table_slots(file, next, step_order, a.crc, expect_offset,
                      expect_step, a.entries);
    a.tables.push_back(next);
  }
  a.blob_end = expect_offset;
  return a;
}

}  // namespace

bool is_pta1(const std::string& path) {
  const File file = File::open_read(path);
  if (file.size() < 4) return false;
  char magic[4] = {};
  file.read_at(0, magic, 4);
  return std::memcmp(magic, kMagicArchive, 4) == 0;
}

void archive_create(const std::string& path, const mps::Comm& comm,
                    const tensor::Dims& step_dims, int species_mode,
                    std::size_t entry_capacity) {
  PT_REQUIRE(!step_dims.empty() &&
                 step_dims.size() + 1 <= detail::kMaxOrder,
             "archive_create: implausible step order " << step_dims.size());
  for (std::size_t d : step_dims) {
    PT_REQUIRE(d >= 1, "archive_create: zero step dim");
  }
  PT_REQUIRE(species_mode < static_cast<int>(step_dims.size()),
             "archive_create: species mode " << species_mode
                                             << " out of step order");
  PT_REQUIRE(entry_capacity >= 1 && entry_capacity <= kMaxCapacity,
             "archive_create: implausible capacity " << entry_capacity);
  if (comm.rank() == 0) {
    detail::HeaderWriter w;
    w.magic(kMagicArchive);
    w.u64(kVersionCrc);
    w.u64(static_cast<std::uint64_t>(step_dims.size()) + 1);
    for (std::size_t d : step_dims) w.u64(d);
    w.u64(species_mode < 0 ? kArchiveNoSpecies
                           : static_cast<std::uint64_t>(species_mode));
    w.u64(static_cast<std::uint64_t>(entry_capacity));
    w.u64(0);  // entry_count: nothing committed yet
    File f = File::create(path);
    f.write_at(0, w.bytes().data(), w.bytes().size());
    // Size the file to the full header so every table slot exists and the
    // first blob lands at a stable offset.
    f.truncate(archive_header_bytes(step_dims.size(), entry_capacity,
                                    /*crc=*/true));
  }
  comm.barrier();
}

void set_archive_hard_cap(std::size_t cap) {
  PT_REQUIRE(cap >= 1, "set_archive_hard_cap: zero cap");
  g_archive_hard_cap.store(cap, std::memory_order_relaxed);
}

std::size_t archive_hard_cap() {
  return g_archive_hard_cap.load(std::memory_order_relaxed);
}

void archive_append_models(const std::string& path,
                           std::span<const ArchiveWindow> windows) {
  PT_REQUIRE(!windows.empty(), "archive_append: empty window batch");
  PT_REQUIRE(windows[0].core != nullptr, "archive_append: null core");
  const mps::Comm& comm = windows[0].core->comm();
  ParsedArchive a;
  {
    const File file = File::open_read(path);
    a = parse_archive(file);
  }
  // Version-1 archives are read-only: their 5-u64 slots cannot hold the
  // checksummed entries this writer commits. Every rank sees the same
  // header, so every rank throws here, before any byte is written.
  PT_REQUIRE(a.crc, "archive_append: " << path
                                       << " is a version-1 PTA1 archive; "
                                          "only version-2 archives accept "
                                          "appends (version 1 is read-only)");
  // Every rank must finish parsing before any rank modifies the file: a
  // continuation header written below is parse-visible (the sniff needs no
  // committed count), so without this fence a slow parser could see a
  // table its peers decided to materialize and diverge on the collective
  // schedule.
  comm.barrier();
  const std::size_t step_order = a.step_dims.size();

  // Validate the whole batch before touching the file: shapes against the
  // shared header, windows mutually contiguous and continuing step_end.
  std::uint64_t expect_step =
      a.entries.empty() ? 0 : a.entries.back().step_end();
  for (const ArchiveWindow& win : windows) {
    PT_REQUIRE(win.core != nullptr, "archive_append: null core");
    PT_REQUIRE(win.factors.size() == step_order + 1,
               "archive_append: model order " << win.factors.size()
                                              << " != step order + 1");
    for (std::size_t n = 0; n < step_order; ++n) {
      PT_REQUIRE(win.factors[n].rows() == a.step_dims[n],
                 "archive_append: factor " << n << " rows "
                                           << win.factors[n].rows()
                                           << " != archive step dim "
                                           << a.step_dims[n]);
    }
    const std::uint64_t step_count = win.factors[step_order].rows();
    PT_REQUIRE(step_count >= 1, "archive_append: empty time window");
    PT_REQUIRE(win.step_first == expect_step,
               "archive_append: window starts at step "
                   << win.step_first << " but the archive ends at step "
                   << expect_step << " (windows must be contiguous)");
    expect_step += step_count;
  }
  const std::size_t hard_cap = archive_hard_cap();
  if (a.entries.size() + windows.size() > hard_cap) {
    std::ostringstream os;
    os << "archive_append: " << path << " is full — " << a.entries.size()
       << " committed entries plus " << windows.size()
       << " new would exceed the hard cap of " << hard_cap
       << " (the entry_capacity chosen at archive_create chains "
          "automatically; raise pario::set_archive_hard_cap to let this "
          "archive grow further)";
    throw ArchiveFull(os.str());
  }

  // Write every payload (and any continuation table the batch grows into)
  // first; slots and counts are committed together afterwards. Every rank
  // derives identical placement from the same committed header, so the only
  // coordination is the barriers inside the collective writes.
  struct PendingSlot {
    std::size_t table;  ///< index into a.tables
    std::uint64_t slot;
    std::uint64_t step_first;
    std::uint64_t step_count;
    double eps;
    std::uint64_t byte_offset;
    std::uint64_t byte_count;
  };
  std::vector<PendingSlot> pending;
  pending.reserve(windows.size());
  std::vector<std::uint64_t> new_counts(a.tables.size());
  for (std::size_t t = 0; t < a.tables.size(); ++t) {
    new_counts[t] = a.tables[t].count;
  }
  std::uint64_t cursor = a.blob_end;
  for (const ArchiveWindow& win : windows) {
    if (new_counts.back() == a.tables.back().capacity) {
      // The active table is full: materialize a continuation table where
      // this blob would have gone. Not a commit point — its count is zero
      // and nothing references it until the final count writes — so a torn
      // creation is recoverable (the sniff rejects it and a later append
      // rewrites the header at the same offset). Capacity granule: the
      // primary capacity. The truncate sizes the file to the exact header
      // end, zero-filling the slots and discarding any torn garbage past
      // the last committed blob.
      TableRef next;
      next.header_off = cursor;
      next.capacity = a.capacity;
      if (comm.rank() == 0) {
        detail::HeaderWriter w;
        w.magic(kMagicCont);
        w.u64(next.capacity);
        w.u64(util::crc32c(0, w.bytes().data(), 12));
        w.u64(0);  // entry_count: nothing committed yet
        const File f = File::open_write(path);
        f.write_at(cursor, w.bytes().data(), w.bytes().size());
        f.truncate(table_header_end(next, step_order, /*crc=*/true));
      }
      comm.barrier();
      a.tables.push_back(next);
      new_counts.push_back(0);
      cursor = table_header_end(next, step_order, /*crc=*/true);
    }
    // Payload: block-parallel, exactly like write_model (rank 0 writes the
    // blob header and extends the file; every rank pwrites its core block).
    const std::uint64_t blob_bytes = write_model_at(
        path, cursor, /*create=*/false, *win.core, win.factors, win.stats);
    PendingSlot slot;
    slot.table = a.tables.size() - 1;
    slot.slot = new_counts.back()++;
    slot.step_first = win.step_first;
    slot.step_count = win.factors[step_order].rows();
    slot.eps = win.eps;
    slot.byte_offset = cursor;
    slot.byte_count = blob_bytes;
    pending.push_back(slot);
    cursor += blob_bytes;
  }

  // Commit: one bracketing fsync pair for the whole batch — sync the
  // payloads (and any new table headers), write every slot, sync, then
  // write the new counts, sync. Counts are the only commit points, so a
  // crash anywhere commits either the whole batch or none of it: payload
  // and slot bytes past the committed counts are unreferenced garbage.
  if (comm.rank() == 0) {
    const File f = File::open_write(path);
    f.sync();
    for (const PendingSlot& slot : pending) {
      detail::HeaderWriter w;
      w.u64(slot.step_first);
      w.u64(slot.step_count);
      std::uint64_t eps_bits = 0;
      std::memcpy(&eps_bits, &slot.eps, sizeof(double));
      w.u64(eps_bits);
      w.u64(slot.byte_offset);
      w.u64(slot.byte_count);
      // slot_crc covers the five fields exactly as serialized above, so a
      // torn slot write can never masquerade as a valid entry.
      w.u64(util::crc32c(0, w.bytes().data(), w.bytes().size()));
      f.write_at(table_slot_offset(a.tables[slot.table], step_order,
                                   slot.slot, /*crc=*/true),
                 w.bytes().data(), w.bytes().size());
    }
    f.sync();
    for (std::size_t t = 0; t < a.tables.size(); ++t) {
      if (new_counts[t] == a.tables[t].count) continue;
      f.write_at(table_count_offset(a.tables[t], step_order), &new_counts[t],
                 sizeof(new_counts[t]));
    }
    f.sync();
  }
  comm.barrier();
}

void archive_append_model(const std::string& path, std::uint64_t step_first,
                          double eps, const dist::DistTensor& core,
                          std::span<const tensor::Matrix> factors,
                          const data::NormalizationStats* stats) {
  ArchiveWindow win;
  win.step_first = step_first;
  win.eps = eps;
  win.core = &core;
  win.factors = factors;
  win.stats = stats;
  archive_append_models(path, std::span<const ArchiveWindow>(&win, 1));
}

ArchiveReader::ArchiveReader(const std::string& path)
    : file_(File::open_read(path)) {
  ParsedArchive a = parse_archive(file_);
  step_dims_ = std::move(a.step_dims);
  species_mode_ = a.species_mode;
  capacity_ = static_cast<std::size_t>(a.capacity);
  for (const TableRef& t : a.tables) {
    total_capacity_ += static_cast<std::size_t>(t.capacity);
  }
  entries_ = std::move(a.entries);
}

int ArchiveReader::species_mode() const {
  return species_mode_ == kArchiveNoSpecies
             ? -1
             : static_cast<int>(species_mode_);
}

std::vector<std::size_t> ArchiveReader::covering(std::uint64_t lo,
                                                 std::uint64_t hi) const {
  PT_REQUIRE(lo < hi, "archive: empty step range [" << lo << ", " << hi
                                                    << ")");
  PT_REQUIRE(hi <= step_end(),
             "archive: step range [" << lo << ", " << hi
                                     << ") beyond archived steps [0, "
                                     << step_end() << ")");
  std::vector<std::size_t> hits;
  for (std::size_t e = 0; e < entries_.size(); ++e) {
    if (entries_[e].step_first < hi && entries_[e].step_end() > lo) {
      hits.push_back(e);
    }
  }
  return hits;
}

void ArchiveReader::check_entry_shape(
    std::size_t e, std::span<const tensor::Matrix> factors) const {
  // Defense in depth: the blob must actually be a model of this archive's
  // shared shape.
  const ArchiveEntry& ent = entry(e);
  PT_REQUIRE(factors.size() == step_dims_.size() + 1,
             "archive: entry " << e << " order mismatch in " << file_.path());
  for (std::size_t n = 0; n < step_dims_.size(); ++n) {
    PT_REQUIRE(factors[n].rows() == step_dims_[n],
               "archive: entry " << e << " spatial dims mismatch in "
                                 << file_.path());
  }
  PT_REQUIRE(factors.back().rows() == ent.step_count,
             "archive: entry " << e << " time extent mismatch in "
                               << file_.path());
}

ModelData ArchiveReader::read_entry(std::size_t e,
                                    std::shared_ptr<mps::CartGrid> grid)
    const {
  const ArchiveEntry& ent = entry(e);
  ModelData model = read_model_at(file_, ent.byte_offset,
                                  ent.byte_offset + ent.byte_count,
                                  std::move(grid));
  check_entry_shape(e, std::span<const tensor::Matrix>(model.factors));
  return model;
}

LocalModelData ArchiveReader::read_entry_local(std::size_t e) const {
  const ArchiveEntry& ent = entry(e);
  LocalModelData model = read_model_local_at(
      file_, ent.byte_offset, ent.byte_offset + ent.byte_count);
  check_entry_shape(e, std::span<const tensor::Matrix>(model.factors));
  return model;
}

}  // namespace ptucker::pario
