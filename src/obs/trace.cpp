#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <iomanip>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "util/error.hpp"
#include "util/thread_rank.hpp"

namespace ptucker::obs {

namespace {

/// One ring slot. Writers claim an index with fetch_add, fill the fields,
/// then publish with ready.store(release); readers only consume published
/// slots (acquire), so a drain racing a writer never sees a torn event.
struct Slot {
  std::atomic<std::uint32_t> ready{0};
  TraceEvent event;
};

struct Ring {
  explicit Ring(std::size_t capacity) : slots(capacity) {}
  std::vector<Slot> slots;
  std::atomic<std::uint64_t> head{0};     ///< next slot to claim
  std::atomic<std::uint64_t> dropped{0};  ///< events lost to a full ring
  std::uint64_t t0_ns = 0;                ///< session start (steady clock)
};

std::atomic<bool> g_active{false};
std::atomic<Ring*> g_ring{nullptr};
std::mutex g_mutex;  ///< guards session transitions and the retired list
/// Every ring ever started, kept alive for the process lifetime: a
/// lock-free recorder may still hold the previous ring's pointer across a
/// restart, so rings are retired, never freed. Bounded by start() calls.
std::vector<std::unique_ptr<Ring>>& rings() {
  static auto* r = new std::vector<std::unique_ptr<Ring>>;
  return *r;
}

std::atomic<std::uint32_t> g_next_tid{0};
std::uint32_t local_tid() {
  thread_local std::uint32_t tid =
      g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

namespace detail {

bool trace_active_slow() {
  return g_active.load(std::memory_order_acquire);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void record_span(const char* name, std::uint64_t t0_ns, std::int64_t arg) {
  Ring* ring = g_ring.load(std::memory_order_acquire);
  if (ring == nullptr || !g_active.load(std::memory_order_acquire)) return;
  const std::uint64_t idx =
      ring->head.fetch_add(1, std::memory_order_relaxed);
  if (idx >= ring->slots.size()) {
    ring->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Slot& slot = ring->slots[static_cast<std::size_t>(idx)];
  slot.event.name = name;
  slot.event.ts_ns = t0_ns > ring->t0_ns ? t0_ns - ring->t0_ns : 0;
  slot.event.dur_ns = now_ns() - t0_ns;
  slot.event.tid = local_tid();
  slot.event.rank = util::thread_rank();
  slot.event.arg = arg;
  slot.ready.store(1, std::memory_order_release);
}

}  // namespace detail

void TraceSession::start(std::size_t capacity) {
  if (capacity < 1) capacity = 1;
  std::lock_guard<std::mutex> lock(g_mutex);
  g_active.store(false, std::memory_order_release);
  auto ring = std::make_unique<Ring>(capacity);
  ring->t0_ns = detail::now_ns();
  g_ring.store(ring.get(), std::memory_order_release);
  rings().push_back(std::move(ring));
  g_active.store(true, std::memory_order_release);
}

void TraceSession::stop() { g_active.store(false, std::memory_order_release); }

bool TraceSession::active() {
  return g_active.load(std::memory_order_acquire);
}

std::uint64_t TraceSession::dropped() {
  const Ring* ring = g_ring.load(std::memory_order_acquire);
  return ring ? ring->dropped.load(std::memory_order_relaxed) : 0;
}

std::vector<TraceEvent> TraceSession::events() {
  const Ring* ring = g_ring.load(std::memory_order_acquire);
  std::vector<TraceEvent> out;
  if (ring == nullptr) return out;
  const std::uint64_t n =
      std::min<std::uint64_t>(ring->head.load(std::memory_order_relaxed),
                              ring->slots.size());
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    const Slot& slot = ring->slots[static_cast<std::size_t>(i)];
    if (slot.ready.load(std::memory_order_acquire) != 0) {
      out.push_back(slot.event);
    }
  }
  return out;
}

std::string TraceSession::chrome_json() {
  const std::vector<TraceEvent> evs = events();
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : evs) {
    if (!first) os << ",\n";
    first = false;
    // Complete ("X") events; ts/dur are microseconds in the trace format.
    os << "{\"name\":\"" << e.name << "\",\"cat\":\"ptucker\",\"ph\":\"X\""
       << ",\"ts\":" << static_cast<double>(e.ts_ns) / 1000.0
       << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1000.0
       << ",\"pid\":0,\"tid\":" << e.tid << ",\"args\":{\"rank\":" << e.rank;
    if (e.arg >= 0) os << ",\"arg\":" << e.arg;
    os << "}}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

void TraceSession::write_chrome_json(const std::string& path) {
  const std::string json = chrome_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  PT_REQUIRE(f != nullptr, "trace: cannot open " << path << " for writing");
  const std::size_t put = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  PT_REQUIRE(put == json.size(), "trace: short write to " << path);
}

}  // namespace ptucker::obs
