#include "serve/panel_cache.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ptucker::serve {

PanelCache::PanelCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  PT_REQUIRE(capacity >= 1, "PanelCache: capacity < 1");
  PT_REQUIRE(shards >= 1, "PanelCache: shards < 1");
  const std::size_t n = std::min(shards, capacity);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = capacity / n + (i < capacity % n ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

std::size_t PanelCache::shard_of(const PanelKey& key) const {
  return (key.archive + key.entry) % shards_.size();
}

std::shared_ptr<const EntryPanels> PanelCache::get_or_load(
    const PanelKey& key, const Loader& loader) {
  Shard& s = *shards_[shard_of(key)];
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    ++s.counters.lookups;
    const auto hit = s.index.find(key);
    if (hit != s.index.end()) {
      ++s.counters.hits;
      s.lru.splice(s.lru.begin(), s.lru, hit->second);  // bump to front
      return s.lru.front().second;
    }
    ++s.counters.misses;
  }
  // Miss: load with the lock dropped so this key's decompression I/O never
  // blocks hits on other keys of the shard. A racing thread may load the
  // same key; first insert wins, the loser adopts the winner's panels.
  std::shared_ptr<const EntryPanels> panels = loader();
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto hit = s.index.find(key);
  if (hit != s.index.end()) {
    s.lru.splice(s.lru.begin(), s.lru, hit->second);
    return s.lru.front().second;
  }
  s.lru.emplace_front(key, std::move(panels));
  s.index[key] = s.lru.begin();
  while (s.lru.size() > s.capacity) {
    s.index.erase(s.lru.back().first);
    s.lru.pop_back();
    ++s.counters.evictions;
  }
  return s.lru.front().second;
}

void PanelCache::erase_archive(std::size_t archive) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->first.archive == archive) {
        shard->index.erase(it->first);
        it = shard->lru.erase(it);
        ++shard->counters.invalidations;
      } else {
        ++it;
      }
    }
  }
}

std::size_t PanelCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->lru.size();
  }
  return total;
}

CacheCounters PanelCache::counters() const {
  CacheCounters total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total.lookups += shard->counters.lookups;
    total.hits += shard->counters.hits;
    total.misses += shard->counters.misses;
    total.evictions += shard->counters.evictions;
    total.invalidations += shard->counters.invalidations;
  }
  return total;
}

std::vector<PanelKey> PanelCache::shard_keys(std::size_t shard) const {
  PT_REQUIRE(shard < shards_.size(),
             "PanelCache: shard " << shard << " out of range");
  const Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<PanelKey> keys;
  keys.reserve(s.lru.size());
  for (const auto& [key, panels] : s.lru) keys.push_back(key);
  return keys;
}

}  // namespace ptucker::serve
