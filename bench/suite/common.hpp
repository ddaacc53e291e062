#pragma once
/// \file common.hpp
/// \brief Shared pieces of the ptucker_bench workloads: run options, the
/// result record and its JSON form, sample summaries, correctness
/// bookkeeping, the blocked timed phase, span totals and barrier-bracketed
/// call timing for the traced runs, and the machine probes (CRC32C rate,
/// core GEMM peak, triad bandwidth).
///
/// Every workload reports its metrics *per op*, where an op is the unit a
/// user waits for: one file-to-file compression (compress-*), one streamed
/// window (stream-append), or one query (serve-*).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "blas/blas.hpp"
#include "mps/comm.hpp"
#include "mps/stats.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/crc32c.hpp"

namespace ptucker::bench::suite {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point t0,
                                            Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Thread ranks for every SPMD region. The load limit is two running
/// threads: two ranks with one GEMM thread each, or two serve clients.
inline constexpr int kRanks = 2;

/// The timed phase is cut into this many equal blocks (one second each at
/// the benchmark's run length), and the set-up is repeated before the
/// first block and after every kSetupEvery-th block; setup_s is the median
/// of those set-ups. On a shared host the machine's speed switches between
/// regimes up to 40% apart every few seconds; spreading the blocks and the
/// set-ups over the run keeps one slow regime from covering all of them.
inline constexpr int kBlocks = 15;
inline constexpr int kSetupEvery = 2;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;       ///< length of the timed loop
  bool smoke = false;          ///< tiny inputs, same checks
  std::string workdir;         ///< scratch directory for inputs and outputs
  std::string trace_path;      ///< non-empty: traced run, chrome JSON here
  [[nodiscard]] bool traced() const { return !trace_path.empty(); }
};

/// Order statistics of a sample; quantiles interpolate linearly between
/// the closest ranks.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

[[nodiscard]] inline double quantile_sorted(const std::vector<double>& s,
                                            double q) {
  if (s.empty()) return 0.0;
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
}

[[nodiscard]] inline Summary summarize(std::vector<double> v) {
  Summary s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.n = v.size();
  s.median = quantile_sorted(v, 0.50);
  s.p25 = quantile_sorted(v, 0.25);
  s.p75 = quantile_sorted(v, 0.75);
  s.p90 = quantile_sorted(v, 0.90);
  s.min = v.front();
  s.max = v.back();
  return s;
}

[[nodiscard]] inline double median_of(std::vector<double> v) {
  return summarize(std::move(v)).median;
}

/// Division that reports 0 for an empty denominator (a layer a workload
/// never enters), so every metric stays a finite number.
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

[[nodiscard]] inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Every metric a run reports, with its unit; BENCHMARK.json lists the same
/// names (run.py --smoke checks that they agree). An untraced run reports
/// the end-to-end set, a traced run the per-layer set. Layers a workload
/// never enters report 0.
struct MetricDef {
  const char* name;
  const char* unit;
};

inline constexpr MetricDef kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},
    {"throughput_mb_s", "MB/s"},
    {"peak_rss_mb", "MB"},
    {"compression_ratio", "ratio"},
};

inline constexpr int kMaxModes = 5;

inline constexpr MetricDef kPerLayerMetrics[] = {
    {"pario.read_s", "s"},
    {"pario.read_mb_s", "MB/s"},
    {"pario.save_s", "s"},
    {"pario.append_s", "s"},
    {"pario.fsyncs", "count"},
    {"pario.write_mb", "MB"},
    {"pario.file_opens", "count"},
    {"util.crc32c_mb_s", "MB/s"},
    {"data.normalize_s", "s"},
    {"core.sthosvd_s", "s"},
    {"dist.gram_s.mode0", "s"},
    {"dist.gram_s.mode1", "s"},
    {"dist.gram_s.mode2", "s"},
    {"dist.gram_s.mode3", "s"},
    {"dist.gram_s.mode4", "s"},
    {"dist.ttm_s.mode0", "s"},
    {"dist.ttm_s.mode1", "s"},
    {"dist.ttm_s.mode2", "s"},
    {"dist.ttm_s.mode3", "s"},
    {"dist.ttm_s.mode4", "s"},
    {"dist.evecs_s", "s"},
    {"dist.tsqr_s", "s"},
    {"dist.sketch_s", "s"},
    {"blas.gram_gflops", "GFLOP/s"},
    {"blas.ttm_gflops", "GFLOP/s"},
    {"blas.peak_gflops", "GFLOP/s"},
    {"blas.gram_pct_peak", "%"},
    {"mem.triad_gb_s", "GB/s"},
    {"mps.words_per_rank", "words"},
    {"mps.msgs_per_rank", "count"},
    {"mps.words_per_rank.p2p", "words"},
    {"mps.words_per_rank.broadcast", "words"},
    {"mps.words_per_rank.reduce", "words"},
    {"mps.words_per_rank.allreduce", "words"},
    {"mps.words_per_rank.allgather", "words"},
    {"mps.words_per_rank.reduce_scatter", "words"},
    {"mps.barrier_wait_s", "s"},
    {"costmodel.predicted_s", "s"},
    {"costmodel.drift", "ratio"},
    {"serve.route_us", "us"},
    {"serve.load_us", "us"},
    {"serve.reconstruct_us", "us"},
    {"serve.denormalize_us", "us"},
    {"serve.stitch_us", "us"},
    {"serve.hit_ratio", "ratio"},
    {"serve.entries_per_query", "count"},
    {"serve.bytes_loaded_per_query", "bytes"},
    {"bench.unattributed_s", "s"},
    {"bench.trace_overhead_pct", "%"},
};

/// One run's record: metrics, sample summaries, configuration, and the
/// attempted/failed op counts. A wrong answer counts as a failed op.
class Result {
 public:
  /// Report every metric of \p defs, at 0 until a workload sets it.
  template <std::size_t N>
  void declare(const MetricDef (&defs)[N]) {
    for (const MetricDef& d : defs) metrics_[d.name] = {0.0, d.unit};
  }
  /// Set a declared metric; its unit comes from the declaration.
  void set(const std::string& name, double value) {
    find(name).value = std::isfinite(value) ? value : 0.0;
  }
  [[nodiscard]] double get(const std::string& name) {
    return find(name).value;
  }
  void config(const std::string& key, const std::string& value) {
    config_[key] = value;
  }
  void samples(const std::string& name, const std::vector<double>& v) {
    samples_[name] = summarize(v);
  }
  /// Record one op (timed or check) and whether it was right.
  void op(bool ok, const std::string& what) { ops(1, ok ? 0 : 1, what); }
  /// Record \p attempted ops of which \p failed went wrong.
  void ops(std::uint64_t attempted, std::uint64_t failed,
           const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) {
      std::fprintf(stderr, "ptucker_bench: FAILED %llu x %s\n",
                   static_cast<unsigned long long>(failed), what.c_str());
    }
  }
  void print_lines() const {
    for (const auto& [name, m] : metrics_) {
      std::printf("%s %.9g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("ops_attempted %llu\nops_failed %llu\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
  }

  [[nodiscard]] std::string json(const RunOptions& opts) const {
    std::ostringstream os;
    os << "{\"workload\":" << quote(opts.workload) << ",\"seed\":" << opts.seed
       << ",\"seconds\":" << num(opts.seconds)
       << ",\"trace\":" << (opts.traced() ? 1 : 0)
       << ",\"smoke\":" << (opts.smoke ? "true" : "false")
       << ",\"build\":{\"compiler\":" << quote(PTB_COMPILER)
       << ",\"build_type\":" << quote(PTB_BUILD_TYPE)
       << ",\"cxx_flags\":" << quote(PTB_CXX_FLAGS)
       << ",\"obs\":" << (obs::kEnabled ? "true" : "false") << "}"
       << ",\"config\":{";
    const char* sep = "";
    for (const auto& [k, v] : config_) {
      os << sep << quote(k) << ":" << quote(v);
      sep = ",";
    }
    os << "},\"ops_attempted\":" << attempted_ << ",\"ops_failed\":" << failed_
       << ",\"metrics\":{";
    sep = "";
    for (const auto& [name, m] : metrics_) {
      os << sep << quote(name) << ":{\"value\":" << num(m.value)
         << ",\"unit\":" << quote(m.unit) << "}";
      sep = ",";
    }
    os << "},\"samples\":{";
    sep = "";
    for (const auto& [name, s] : samples_) {
      os << sep << quote(name) << ":{\"n\":" << s.n
         << ",\"median\":" << num(s.median) << ",\"p25\":" << num(s.p25)
         << ",\"p75\":" << num(s.p75) << ",\"p90\":" << num(s.p90)
         << ",\"min\":" << num(s.min) << ",\"max\":" << num(s.max) << "}";
      sep = ",";
    }
    os << "}}";
    return os.str();
  }

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  Metric& find(const std::string& name) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      // A name outside the declared set is a bug in this driver.
      std::fprintf(stderr, "ptucker_bench: undeclared metric %s\n",
                   name.c_str());
      std::exit(2);
    }
    return it->second;
  }
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
  }
  static std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
  }

  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> config_;
  std::map<std::string, Summary> samples_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Delta of the process-wide pario registry counters over one region.
struct IoCounters {
  std::uint64_t fsyncs = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t file_opens = 0;

  [[nodiscard]] static IoCounters now() {
    const obs::Snapshot snap = obs::registry().snapshot("pario.");
    const auto get = [&](const char* name) {
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? std::uint64_t{0} : it->second;
    };
    return {get("pario.fsyncs"), get("pario.write_bytes"),
            get("pario.file_opens")};
  }
  [[nodiscard]] IoCounters operator-(const IoCounters& o) const {
    return {fsyncs - o.fsyncs, write_bytes - o.write_bytes,
            file_opens - o.file_opens};
  }
};

/// Per-op traffic of the slowest rank, by collective (Runtime::max_stats).
inline void report_mps(Result& res, const mps::CommStats& s, double ops) {
  res.set("mps.words_per_rank", s.words_sent() / ops);
  res.set("mps.msgs_per_rank", static_cast<double>(s.messages_sent) / ops);
  const std::pair<const char*, mps::OpKind> kinds[] = {
      {"p2p", mps::OpKind::P2P},
      {"broadcast", mps::OpKind::Broadcast},
      {"reduce", mps::OpKind::Reduce},
      {"allreduce", mps::OpKind::AllReduce},
      {"allgather", mps::OpKind::AllGather},
      {"reduce_scatter", mps::OpKind::ReduceScatter}};
  for (const auto& [name, kind] : kinds) {
    res.set(std::string("mps.words_per_rank.") + name, s.op_words(kind) / ops);
  }
}

// --- the timed phase --------------------------------------------------------

/// One block of the timed phase: the latencies of the ops that ran in it,
/// the MB they processed, and the seconds they ran (checks excluded).
struct Block {
  std::vector<double> op_s;
  double mb = 0.0;
  double busy_s = 0.0;
};

/// Runs \p body into a freshly emptied \p dir and returns its seconds.
template <class F>
double time_setup(const std::string& dir, F&& body) {
  std::filesystem::remove_all(dir);
  const Clock::time_point t0 = Clock::now();
  std::filesystem::create_directories(dir);
  body(dir);
  return seconds_between(t0, Clock::now());
}

/// The timed phase: kBlocks blocks of \p seconds / kBlocks each, filled by
/// \p run_block(block, block_seconds), with the set-up \p setup(dir)
/// repeated after every kSetupEvery-th block into a scratch directory under
/// \p workdir. Returns the blocks; the set-up seconds are appended to
/// \p setups.
template <class RunBlock, class Setup>
std::vector<Block> timed_phase(double seconds, const std::string& workdir,
                               std::vector<double>& setups,
                               RunBlock&& run_block, Setup&& setup) {
  std::vector<Block> blocks(kBlocks);
  const std::string again = workdir + "/setup-again";
  for (int b = 0; b < kBlocks; ++b) {
    run_block(blocks[static_cast<std::size_t>(b)], seconds / kBlocks);
    if (b % kSetupEvery == kSetupEvery - 1) {
      setups.push_back(time_setup(again, setup));
      std::filesystem::remove_all(again);
    }
  }
  return blocks;
}

/// Every op latency of the blocks, in block order.
[[nodiscard]] inline std::vector<double> all_ops(
    const std::vector<Block>& blocks) {
  std::vector<double> all;
  for (const Block& b : blocks) {
    all.insert(all.end(), b.op_s.begin(), b.op_s.end());
  }
  return all;
}

/// Sets the end-to-end timing metrics, each from the block where it reads
/// best: a code change moves every block, a slow regime of the host only
/// the blocks it covers.
inline void report_blocks(Result& res, const std::vector<Block>& blocks) {
  double p50 = std::numeric_limits<double>::infinity();
  double p90 = p50;
  double mb_s = 0.0;
  std::vector<double> block_p50;
  for (const Block& b : blocks) {
    if (b.op_s.empty()) continue;
    const Summary s = summarize(b.op_s);
    p50 = std::min(p50, s.median);
    p90 = std::min(p90, s.p90);
    mb_s = std::max(mb_s, ratio(b.mb, b.busy_s));
    block_p50.push_back(s.median);
  }
  res.set("op_p50_ms", 1e3 * p50);
  res.set("op_p90_ms", 1e3 * p90);
  res.set("throughput_mb_s", mb_s);
  res.samples("op_s", all_ops(blocks));
  res.samples("block_p50_s", block_p50);
}

// --- traced runs -------------------------------------------------------------

/// Span seconds of a stopped trace session, summed per rank. The library's
/// own spans are the layer record: st_hosvd's Gram / Evecs / TTM / Sketch /
/// TSQR (mode in the argument) and the streaming compressor's stream.read /
/// normalize / compress / append.
class SpanTotals {
 public:
  SpanTotals() : events_(obs::TraceSession::events()) {}

  /// The slowest rank's summed seconds in spans named any of \p names
  /// (and with argument \p arg, when given): Fig. 8's bottleneck view.
  [[nodiscard]] double seconds(std::initializer_list<const char*> names,
                               std::optional<std::int64_t> arg = {}) const {
    std::map<std::int32_t, double> per_rank;
    for (const obs::TraceEvent& e : events_) {
      if (arg && e.arg != *arg) continue;
      for (const char* name : names) {
        if (std::strcmp(e.name, name) == 0) {
          per_rank[e.rank] += static_cast<double>(e.dur_ns) * 1e-9;
        }
      }
    }
    double worst = 0.0;
    for (const auto& [rank, s] : per_rank) worst = std::max(worst, s);
    return worst;
  }

 private:
  std::vector<obs::TraceEvent> events_;
};

// --- machine probes --------------------------------------------------------

/// CRC32C throughput over a 64 MiB buffer (the checksum every PTB1/PTZ1/
/// PTA1 read verifies); median of three passes.
[[nodiscard]] inline double crc32c_mb_s(bool smoke) {
  const std::size_t bytes = smoke ? (std::size_t{1} << 20)
                                  : (std::size_t{64} << 20);
  std::vector<unsigned char> buf(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    buf[i] = static_cast<unsigned char>(i * 131u + 7u);
  }
  std::vector<double> rates;
  std::uint32_t crc = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const Clock::time_point t0 = Clock::now();
    crc = util::crc32c(crc, buf.data(), buf.size());
    rates.push_back(static_cast<double>(bytes) / 1e6 /
                    seconds_between(t0, Clock::now()));
  }
  return median_of(rates);
}

/// Single-thread GEMM rate on 384^3 operands (GFLOP/s): the per-core peak
/// the Gram/TTM rates are compared against (paper Fig. 9). Median of three.
[[nodiscard]] inline double core_peak_gflops() {
  const std::size_t n = 384;
  std::vector<double> a(n * n, 1.5);
  std::vector<double> b(n * n, -0.5);
  std::vector<double> c(n * n, 0.0);
  blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, a.data(), n,
             b.data(), n, 0.0, c.data(), n);
  std::vector<double> rates;
  for (int r = 0; r < 3; ++r) {
    const Clock::time_point t0 = Clock::now();
    blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, a.data(), n,
               b.data(), n, 0.0, c.data(), n);
    rates.push_back(2.0 * static_cast<double>(n * n * n) / 1e9 /
                    seconds_between(t0, Clock::now()));
  }
  return median_of(rates);
}

/// Last-level cache size from sysfs, 0 when unknown.
[[nodiscard]] inline std::size_t llc_bytes() {
  std::size_t best = 0;
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(idx) + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    std::size_t v = std::stoull(text);
    const char suffix = text.back();
    if (suffix == 'K') v <<= 10;
    if (suffix == 'M') v <<= 20;
    best = std::max(best, v);
  }
  return best;
}

/// Single-thread STREAM triad a = b + s*c (GB/s, three arrays counted),
/// best of three passes. The three arrays together span four times the
/// last-level cache (clamped to 256-768 MiB), so each sequential pass
/// streams from memory.
[[nodiscard]] inline double triad_gb_s(bool smoke) {
  const std::size_t total =
      smoke ? (std::size_t{24} << 20)
            : std::clamp<std::size_t>(4 * llc_bytes(), std::size_t{256} << 20,
                                      std::size_t{768} << 20);
  const std::size_t n = total / 3 / sizeof(double);
  std::vector<double> a(n, 0.0);
  std::vector<double> b(n, 1.0);
  std::vector<double> c(n, 2.0);
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const double s = 0.5 + pass;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double secs = seconds_between(t0, Clock::now());
    if (a[n - 1] != 1.0 + 2.0 * s) return 0.0;
    best = std::max(best, 3.0 * static_cast<double>(n * sizeof(double)) /
                              1e9 / secs);
  }
  return best;
}

/// "64x64x16" for a shape.
template <class T>
[[nodiscard]] std::string shape_text(const std::vector<T>& v) {
  std::string s;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += 'x';
    s += std::to_string(v[i]);
  }
  return s;
}

/// Whole-file contents (for byte-identity checks).
[[nodiscard]] inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Raw bytes over stored bytes.
[[nodiscard]] inline double compression_ratio(double raw_bytes,
                                              const std::string& stored) {
  return ratio(raw_bytes,
               static_cast<double>(std::filesystem::file_size(stored)));
}

}  // namespace ptucker::bench::suite
