#pragma once
/// \file timestep_reader.hpp
/// \brief Streaming reader over a directory of per-timestep tensor files —
/// the "compress the simulation as it lands on disk" workflow (paper
/// Sec. II): a solver dumps one spatial x species tensor per step; the
/// compressor consumes them window-by-window without ever materializing a
/// global space-time tensor on any rank.
///
/// Steps are PTB1 or PTT1 files (mixable) with identical dims, ordered by
/// filename. All reads go through the chunked-container machinery, so each
/// rank touches only the bytes of its own sub-block: the whole pipeline is
/// communication-free.
///
/// Open descriptors and parsed headers are kept in a small per-reader LRU
/// cache, so sliding a window over a thousand-step directory re-opens and
/// re-parses each file once per pass instead of once per read. The bound
/// keeps the fd footprint well under typical RLIMIT_NOFILE even with one
/// reader per rank.
///
/// Because the in-situ workflow reads step files while the solver is still
/// producing (and possibly rewriting) them, every cache hit revalidates the
/// file's identity and mtime/size against the filesystem: a step file that
/// was overwritten, replaced, or grown since it was parsed is evicted and
/// re-opened instead of being served from the stale header.

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include <mutex>

#include "dist/dist_tensor.hpp"
#include "tensor/tensor.hpp"

namespace ptucker::pario {

class BlockFile;

namespace detail {
/// Filesystem identity + freshness of a step file at parse time; a
/// mismatch on a later cache hit means the file changed under us.
struct StepFileSig {
  std::uint64_t dev = 0;
  std::uint64_t ino = 0;
  std::uint64_t size = 0;
  std::int64_t mtime_sec = 0;
  std::int64_t mtime_nsec = 0;
  bool operator==(const StepFileSig&) const = default;
};

/// stat() of \p path condensed to its signature; nullopt when the file
/// cannot be stat'ed. The check is only as fine as the filesystem's mtime
/// granularity: an in-place rewrite that keeps the size and lands within
/// one timestamp tick of the recorded stat is indistinguishable
/// (replace-by-rename — the robust producer-side pattern — always changes
/// the inode and is caught).
[[nodiscard]] std::optional<StepFileSig> stat_sig(const std::string& path);
}  // namespace detail

class TimestepReader {
 public:
  /// Scan \p dir for step files (extensions .ptb / .ptt), sorted by
  /// filename, and validate that every header carries the same dims. The
  /// scan is deterministic, so SPMD ranks constructing a reader over the
  /// same directory agree on the step list with zero communication.
  /// \p max_cached_files bounds the open-fd/header LRU (>= 1).
  explicit TimestepReader(std::string dir, std::size_t max_cached_files = 32);
  ~TimestepReader();

  [[nodiscard]] std::size_t num_steps() const { return paths_.size(); }
  /// Dims of one step (the spatial x species tensor, no time mode).
  [[nodiscard]] const tensor::Dims& step_dims() const { return step_dims_; }
  [[nodiscard]] const std::string& step_path(std::size_t t) const {
    return paths_[t];
  }

  /// Read the given per-mode ranges of step \p t (preads only).
  [[nodiscard]] tensor::Tensor read_step(
      std::size_t t, const std::vector<util::Range>& ranges) const;

  /// Collective: assemble steps [first, first + count) as a DistTensor
  /// whose last mode is time. \p grid must have order step-order + 1; each
  /// rank reads its own spatial sub-block of each step in its time range
  /// directly into its local slab. Zero messages.
  [[nodiscard]] dist::DistTensor read_window(
      std::shared_ptr<mps::CartGrid> grid, std::size_t first,
      std::size_t count) const;

  /// Cache observability (tests and tuning): steps currently held open, and
  /// the total number of open+parse operations performed so far. A fully
  /// cached re-read leaves file_opens() unchanged.
  [[nodiscard]] std::size_t cached_files() const;
  [[nodiscard]] std::size_t file_opens() const;

 private:
  struct CacheEntry {
    std::size_t step = 0;
    std::shared_ptr<const BlockFile> file;
    detail::StepFileSig sig;
  };

  /// Fetch step \p t through the LRU (opens + parses on miss, evicting the
  /// least-recently-used entry at the bound). A hit is revalidated against
  /// the current stat of the path and treated as a miss when stale.
  /// Thread-safe; the returned handle stays valid after eviction (shared
  /// ownership) and its preads need no lock.
  [[nodiscard]] std::shared_ptr<const BlockFile> step_file(std::size_t t) const;

  std::string dir_;
  std::vector<std::string> paths_;
  tensor::Dims step_dims_;
  std::size_t max_cached_ = 32;

  mutable std::mutex cache_mutex_;
  /// Front = most recently used.
  mutable std::list<CacheEntry> lru_;
  mutable std::unordered_map<std::size_t, std::list<CacheEntry>::iterator>
      cache_;
  mutable std::size_t file_opens_ = 0;
};

}  // namespace ptucker::pario
