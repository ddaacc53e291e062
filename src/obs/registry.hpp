#pragma once
/// \file registry.hpp
/// \brief Process-wide metrics registry: named counters, gauges, and
/// log-bucketed latency histograms shared by every layer of the stack.
///
/// The paper's evaluation lives and dies by attribution — Fig. 8 splits
/// wall time across Gram/Evecs/TTM, Tab. I counts per-collective words —
/// and TuckerMPI ships the same per-phase timing/byte reporting as a
/// first-class feature. The registry holds the process-wide tallies that
/// no per-instance record owns, under dotted names ("pario.read_bytes",
/// "blas.pool.jobs", "serve.query_us"), so one `registry().snapshot()`
/// sees them all. Exact per-rank and per-server counts are not mirrored
/// here: mps::CommStats, serve::CacheCounters and serve::ExecutorCounters
/// are the only record of those (QueryServer::stats_report() prints the
/// server's beside the snapshot).
///
/// Design rules:
///  - Handles (Counter/Gauge/Histogram) are trivially copyable value types
///    pointing at registry-owned cells. Registration takes a mutex once;
///    updates are single relaxed atomic ops — the fast path never locks.
///  - The registry is a leaked singleton: handles cached in function-local
///    statics stay valid through program exit (including thread_local
///    destructors that may still record).
///  - Metrics never influence computation: the registry only ever
///    observes, so results are bit-identical whatever is recorded.
///
/// Histograms are log-bucketed (8 sub-buckets per power of two, ~12.5%
/// relative resolution, HdrHistogram-style) so recording is one atomic
/// increment and percentile queries walk at most 496 buckets. Quantiles
/// are exact to the bucket: the reported p50/p90/p99 is the bound of the
/// bucket holding the nearest-rank sample (asserted against exact sorted
/// percentiles in tests/obs_test.cpp).

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ptucker::obs {

/// Always true: instrumentation is part of every build. Kept only because
/// the benchmark suite records it in every result file.
inline constexpr bool kEnabled = true;

/// Log-bucketed histogram storage: values 0..7 exact, then 8 sub-buckets
/// per octave. Thread-safe: record() is wait-free (relaxed atomics), reads
/// are monotone snapshots. Usable standalone or registry-owned via
/// Registry::histogram().
class HistogramData {
 public:
  static constexpr int kSubBits = 3;
  static constexpr int kSubCount = 1 << kSubBits;  // 8
  /// 8 exact buckets + one octave of 8 for each msb position 3..63.
  static constexpr int kBuckets = kSubCount * 62;  // 496

  /// Bucket index of value \p v; buckets partition [0, 2^64).
  [[nodiscard]] static int bucket_of(std::uint64_t v) {
    if (v < kSubCount) return static_cast<int>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBits;
    const int sub = static_cast<int>((v >> shift) & (kSubCount - 1));
    return kSubCount * (msb - 2) + sub;
  }
  /// Inclusive lower bound of bucket \p index.
  [[nodiscard]] static std::uint64_t bucket_lo(int index) {
    if (index < kSubCount) return static_cast<std::uint64_t>(index);
    const int octave = index >> kSubBits;  // >= 1
    const int shift = octave - 1;
    const std::uint64_t sub = static_cast<std::uint64_t>(index & (kSubCount - 1));
    return (static_cast<std::uint64_t>(kSubCount) + sub) << shift;
  }
  /// Exclusive upper bound of bucket \p index. The top bucket's true bound
  /// (2^64) is unrepresentable, so it saturates to 2^64 - 1, which that
  /// bucket holds inclusively.
  [[nodiscard]] static std::uint64_t bucket_hi(int index) {
    if (index < kSubCount) return static_cast<std::uint64_t>(index) + 1;
    const int shift = (index >> kSubBits) - 1;
    const std::uint64_t lo = bucket_lo(index);
    const std::uint64_t hi = lo + (std::uint64_t{1} << shift);
    return hi > lo ? hi : ~std::uint64_t{0};
  }

  void record(std::uint64_t v) {
    buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    atomic_min(min_, v);
    atomic_max(max_, v);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t min() const {
    const std::uint64_t m = min_.load(std::memory_order_relaxed);
    return m == kEmptyMin ? 0 : m;
  }
  [[nodiscard]] std::uint64_t max() const {
    return max_.load(std::memory_order_relaxed);
  }

  /// Nearest-rank percentile, reported as the upper bound of the bucket
  /// holding the rank-ceil(p/100 * count) sample. Exact within one bucket
  /// (~12.5% relative) by construction; 0 when empty.
  [[nodiscard]] std::uint64_t percentile(double p) const;
  /// [lo, hi) value range of the bucket the percentile falls in.
  struct Bounds {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
  };
  [[nodiscard]] Bounds percentile_bounds(double p) const;

  void reset();

 private:
  static constexpr std::uint64_t kEmptyMin = ~std::uint64_t{0};
  static void atomic_min(std::atomic<std::uint64_t>& cell, std::uint64_t v) {
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    while (v < cur &&
           !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void atomic_max(std::atomic<std::uint64_t>& cell, std::uint64_t v) {
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    while (v > cur &&
           !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{kEmptyMin};
  std::atomic<std::uint64_t> max_{0};
};

/// Monotonic counter handle. Copyable, never dangles (registry cells leak).
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n) { cell_->fetch_add(n, std::memory_order_relaxed); }
  void inc() { add(1); }
  [[nodiscard]] std::uint64_t value() const {
    return cell_->load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Counter(std::atomic<std::uint64_t>* cell) : cell_(cell) {}
  std::atomic<std::uint64_t>* cell_ = nullptr;
};

/// Instantaneous value handle, moved by signed deltas (in-flight counts).
class Gauge {
 public:
  Gauge() = default;
  void add(std::int64_t delta) {
    cell_->fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return cell_->load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Gauge(std::atomic<std::int64_t>* cell) : cell_(cell) {}
  std::atomic<std::int64_t>* cell_ = nullptr;
};

/// Histogram handle; record() is one relaxed atomic increment per bucket.
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t v) { data_->record(v); }
  [[nodiscard]] const HistogramData* data() const { return data_; }

 private:
  friend class Registry;
  explicit Histogram(HistogramData* data) : data_(data) {}
  HistogramData* data_ = nullptr;
};

/// One histogram's digest inside a Snapshot.
struct HistogramStats {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
};

/// Point-in-time view of every registered metric. Counters read with
/// relaxed loads while writers run: each value is some value the counter
/// actually held (monotone across snapshots), not a cross-metric cut.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramStats> histograms;

  /// "name value" lines, sorted, histograms expanded to count/p50/p90/p99.
  [[nodiscard]] std::string to_text() const;
};

/// The process-wide registry. Metric names are dotted paths; requesting an
/// existing name returns a handle to the same cell (subsystems and tests
/// can observe each other's metrics by name).
class Registry {
 public:
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  [[nodiscard]] Histogram histogram(std::string_view name);

  /// Snapshot every metric, optionally restricted to names starting with
  /// \p prefix ("" = everything).
  [[nodiscard]] Snapshot snapshot(std::string_view prefix = {}) const;

  /// Zero every registered metric (tests and bench scenario boundaries).
  /// Handles stay valid — cells are reset, not replaced.
  void reset();

 private:
  friend Registry& registry();
  Registry() = default;
  struct Impl;
  [[nodiscard]] Impl& impl() const;
  mutable Impl* impl_ = nullptr;
};

/// The process-wide instance (leaked; safe to use from thread_local dtors).
[[nodiscard]] Registry& registry();

}  // namespace ptucker::obs
