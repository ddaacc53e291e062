#include "serve/panel_cache.hpp"

#include "util/error.hpp"

namespace ptucker::serve {

PanelCache::PanelCache(std::size_t capacity) : capacity_(capacity) {
  PT_REQUIRE(capacity >= 1, "PanelCache: capacity < 1");
}

std::shared_ptr<const EntryPanels> PanelCache::get_or_load(
    const PanelKey& key, const Loader& loader) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.lookups;
    const auto hit = index_.find(key);
    if (hit != index_.end()) {
      ++counters_.hits;
      lru_.splice(lru_.begin(), lru_, hit->second);  // bump to front
      return lru_.front().second;
    }
    ++counters_.misses;
  }
  // Miss: load with the lock dropped so this key's decompression I/O never
  // blocks hits on other keys. A racing thread may load the same key; first
  // insert wins, the loser adopts the winner's panels.
  std::shared_ptr<const EntryPanels> panels = loader();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto hit = index_.find(key);
  if (hit != index_.end()) {
    lru_.splice(lru_.begin(), lru_, hit->second);
    return lru_.front().second;
  }
  lru_.emplace_front(key, std::move(panels));
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++counters_.evictions;
  }
  return lru_.front().second;
}

void PanelCache::erase_archive(std::size_t archive) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->first.archive == archive) {
      index_.erase(it->first);
      it = lru_.erase(it);
      ++counters_.invalidations;
    } else {
      ++it;
    }
  }
}

std::size_t PanelCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

CacheCounters PanelCache::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::vector<PanelKey> PanelCache::keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<PanelKey> keys;
  keys.reserve(lru_.size());
  for (const auto& [key, panels] : lru_) keys.push_back(key);
  return keys;
}

}  // namespace ptucker::serve
