#include "obs/registry.hpp"

#include <deque>
#include <mutex>
#include <sstream>

namespace ptucker::obs {

std::uint64_t HistogramData::percentile(double p) const {
  return percentile_bounds(p).hi;
}

HistogramData::Bounds HistogramData::percentile_bounds(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return {};
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Nearest-rank: the k-th smallest sample, k = ceil(p/100 * n), k >= 1.
  std::uint64_t rank = static_cast<std::uint64_t>(
      p / 100.0 * static_cast<double>(n) + 0.9999999999);
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
    if (seen >= rank) return {bucket_lo(b), bucket_hi(b)};
  }
  // Writers racing the walk can leave seen < rank; fall back to max().
  return {max(), max() + 1};
}

void HistogramData::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(kEmptyMin, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

struct Registry::Impl {
  mutable std::mutex mutex;
  // deques: stable addresses across registration (handles never dangle).
  std::map<std::string, std::atomic<std::uint64_t>*, std::less<>> counters;
  std::map<std::string, std::atomic<std::int64_t>*, std::less<>> gauges;
  std::map<std::string, HistogramData*, std::less<>> histograms;
  std::deque<std::atomic<std::uint64_t>> counter_cells;
  std::deque<std::atomic<std::int64_t>> gauge_cells;
  std::deque<HistogramData> histogram_cells;
};

Registry::Impl& Registry::impl() const {
  // Leaked on purpose: metric updates may run during static/thread_local
  // destruction (e.g. a rank's ThreadPool joining its workers at exit).
  static Impl* instance = new Impl;
  if (impl_ == nullptr) impl_ = instance;
  return *impl_;
}

Counter Registry::counter(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  auto it = im.counters.find(name);
  if (it == im.counters.end()) {
    im.counter_cells.emplace_back(0);
    it = im.counters.emplace(std::string(name), &im.counter_cells.back())
             .first;
  }
  return Counter(it->second);
}

Gauge Registry::gauge(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  auto it = im.gauges.find(name);
  if (it == im.gauges.end()) {
    im.gauge_cells.emplace_back(0);
    it = im.gauges.emplace(std::string(name), &im.gauge_cells.back()).first;
  }
  return Gauge(it->second);
}

Histogram Registry::histogram(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  auto it = im.histograms.find(name);
  if (it == im.histograms.end()) {
    im.histogram_cells.emplace_back();
    it = im.histograms.emplace(std::string(name), &im.histogram_cells.back())
             .first;
  }
  return Histogram(it->second);
}

Snapshot Registry::snapshot(std::string_view prefix) const {
  Impl& im = impl();
  Snapshot snap;
  std::lock_guard<std::mutex> lock(im.mutex);
  for (const auto& [name, cell] : im.counters) {
    if (!prefix.empty() && name.rfind(prefix, 0) != 0) continue;
    snap.counters.emplace(name, cell->load(std::memory_order_relaxed));
  }
  for (const auto& [name, cell] : im.gauges) {
    if (!prefix.empty() && name.rfind(prefix, 0) != 0) continue;
    snap.gauges.emplace(name, cell->load(std::memory_order_relaxed));
  }
  for (const auto& [name, data] : im.histograms) {
    if (!prefix.empty() && name.rfind(prefix, 0) != 0) continue;
    HistogramStats hs;
    hs.count = data->count();
    hs.sum = data->sum();
    hs.min = data->min();
    hs.max = data->max();
    hs.p50 = data->percentile(50);
    hs.p90 = data->percentile(90);
    hs.p99 = data->percentile(99);
    snap.histograms.emplace(name, hs);
  }
  return snap;
}

void Registry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  for (auto& [name, cell] : im.counters) {
    cell->store(0, std::memory_order_relaxed);
  }
  for (auto& [name, cell] : im.gauges) {
    cell->store(0, std::memory_order_relaxed);
  }
  for (auto& [name, data] : im.histograms) data->reset();
}

std::string Snapshot::to_text() const {
  std::ostringstream os;
  for (const auto& [name, v] : counters) os << name << " " << v << "\n";
  for (const auto& [name, v] : gauges) os << name << " " << v << "\n";
  for (const auto& [name, h] : histograms) {
    os << name << " count " << h.count << " sum " << h.sum << " min "
       << h.min << " max " << h.max << " p50 " << h.p50 << " p90 " << h.p90
       << " p99 " << h.p99 << "\n";
  }
  return os.str();
}

Registry& registry() {
  static Registry* instance = new Registry;
  return *instance;
}

}  // namespace ptucker::obs
