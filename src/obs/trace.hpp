#pragma once
/// \file trace.hpp
/// \brief Structured tracing: nested RAII spans recorded into a bounded
/// in-memory ring, exportable as chrome://tracing JSON.
///
/// A trace answers the question the flat registry cannot: *where inside
/// one slow query (or one ST-HOSVD mode) did the time go?* Spans carry
/// thread and rank attribution, so loading the trace that
/// `ptucker_bench --workload serve-cold --trace out.json` writes into
/// chrome://tracing (or https://ui.perfetto.dev) shows each worker's
/// route -> load -> reconstruct -> denormalize -> stitch decomposition per
/// query, and a tool run shows the per-mode Gram/Evecs/TTM stacks of Fig. 8
/// as a timeline.
///
/// Cost model:
///  - Session inactive (the default): constructing a Span is one relaxed
///    atomic load and a branch — cheap enough for the hottest paths, and
///    verified to leave results bit-identical (determinism tests run with
///    tracing off and on).
///  - Session active: begin stamps a steady_clock time; end claims a ring
///    slot with one fetch_add and fills it. No locks on the record path.
///
/// The ring is bounded: when full, new events are dropped and counted
/// (`TraceSession::dropped()`), never reallocated — a runaway span source
/// cannot take down a serving process. Span names must be string literals
/// (or otherwise outlive the session): the ring stores the pointer.

#include <cstdint>
#include <string>
#include <vector>

namespace ptucker::obs {

/// One completed span. Times are nanoseconds since session start.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< process-unique per-thread id (first-span order)
  std::int32_t rank = -1; ///< mps rank of the recording thread, -1 outside
  std::int64_t arg = -1;  ///< span argument (tensor mode, entry index, ...)
};

/// Global trace collection. One session at a time; start/stop are
/// thread-safe, recording is lock-free. Typical tool usage:
///
///   obs::TraceSession::start();
///   ... run ...
///   obs::TraceSession::write_chrome_json("out.json");
///   obs::TraceSession::stop();
class TraceSession {
 public:
  /// Begin collecting spans into a fresh ring of \p capacity events.
  /// Restarting an active session discards its events.
  static void start(std::size_t capacity = 1 << 16);
  /// Stop collecting (events are kept until the next start()).
  static void stop();
  [[nodiscard]] static bool active();
  /// Events dropped because the ring was full.
  [[nodiscard]] static std::uint64_t dropped();
  /// Completed events recorded so far, in completion order.
  [[nodiscard]] static std::vector<TraceEvent> events();
  /// Serialize to the chrome://tracing "traceEvents" JSON format.
  [[nodiscard]] static std::string chrome_json();
  /// chrome_json() to a file; throws util::Error on I/O failure.
  static void write_chrome_json(const std::string& path);
};

namespace detail {
[[nodiscard]] bool trace_active_slow();
void record_span(const char* name, std::uint64_t t0_ns, std::int64_t arg);
[[nodiscard]] std::uint64_t now_ns();
}  // namespace detail

/// RAII span: times its scope into the active session. A span constructed
/// while the session is inactive records nothing, even if the session
/// starts before it ends (sessions never see half-open spans).
class Span {
 public:
  explicit Span(const char* name, std::int64_t arg = -1) {
    if (detail::trace_active_slow()) {
      name_ = name;
      arg_ = arg;
      t0_ns_ = detail::now_ns();
    }
  }
  ~Span() {
    if (name_ != nullptr) detail::record_span(name_, t0_ns_, arg_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  ///< null: recording nothing
  std::uint64_t t0_ns_ = 0;
  std::int64_t arg_ = -1;
};

}  // namespace ptucker::obs
