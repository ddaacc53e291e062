#pragma once
/// \file panel_cache.hpp
/// \brief LRU cache of decompressed archive-entry panels (core + factors +
/// stats) for the query server: many concurrent queries over the same hot
/// windows decompress each window's model once, not once per query.
///
/// The design follows the TimestepReader LRU (pario/timestep_reader.hpp):
/// one mutex guards the recency list, and the loader runs with no lock held
/// so a miss's disk I/O never blocks hits on other keys. Two threads racing
/// to load the same key both load; the first insert wins and the loser
/// adopts it (one redundant read, no torn state) — the same policy
/// TimestepReader::step_file uses.
///
/// Keys carry the owning archive's revalidation generation: when the server
/// detects an archive was rewritten in place, it bumps the generation and
/// drops the archive's panels, so stale models can never serve a query (see
/// QueryServer). Values are shared_ptr-to-const: eviction never invalidates
/// a panel a query is still reading.

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "data/normalize.hpp"
#include "tensor/matrix.hpp"
#include "tensor/tensor.hpp"

namespace ptucker::serve {

/// One archive entry decompressed and ready to contract: the full core, the
/// replicated factors, the window it covers, and its normalization stats.
struct EntryPanels {
  std::uint64_t step_first = 0;
  std::uint64_t step_count = 0;
  tensor::Tensor core;
  std::vector<tensor::Matrix> factors;
  bool has_stats = false;
  data::NormalizationStats stats;  ///< valid only when has_stats
};

/// Cache key: which archive (server-local index), which revalidation
/// generation of it, which entry.
struct PanelKey {
  std::size_t archive = 0;
  std::uint64_t generation = 0;
  std::size_t entry = 0;
  bool operator==(const PanelKey&) const = default;
};

/// Monotonic cache statistics. hits + misses == lookups always holds (a
/// racing duplicate load counts as the one miss of the thread that looked
/// up and found nothing).
struct CacheCounters {
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;      ///< capacity evictions only
  std::size_t invalidations = 0;  ///< panels dropped by erase_archive
};

class PanelCache {
 public:
  /// At most \p capacity (>= 1) panels resident.
  explicit PanelCache(std::size_t capacity);

  using Loader = std::function<std::shared_ptr<const EntryPanels>()>;

  /// Return the cached panels for \p key, or invoke \p loader (with no
  /// cache lock held) and cache its result. Never returns null unless the
  /// loader returns null.
  [[nodiscard]] std::shared_ptr<const EntryPanels> get_or_load(
      const PanelKey& key, const Loader& loader);

  /// Drop every panel of \p archive (all generations) — the revalidation
  /// path when an archive was rewritten in place.
  void erase_archive(std::size_t archive);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Panels currently resident.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] CacheCounters counters() const;
  /// Resident keys, most recently used first (tests only).
  [[nodiscard]] std::vector<PanelKey> keys() const;

 private:
  struct KeyHash {
    std::size_t operator()(const PanelKey& k) const {
      std::size_t h = std::hash<std::size_t>{}(k.archive);
      h = h * 1000003u ^ std::hash<std::uint64_t>{}(k.generation);
      return h * 1000003u ^ std::hash<std::size_t>{}(k.entry);
    }
  };

  std::size_t capacity_ = 0;
  mutable std::mutex mutex_;  ///< guards lru_, index_ and counters_
  /// Front = most recently used.
  std::list<std::pair<PanelKey, std::shared_ptr<const EntryPanels>>> lru_;
  std::unordered_map<PanelKey, decltype(lru_)::iterator, KeyHash> index_;
  CacheCounters counters_;
};

}  // namespace ptucker::serve
