#pragma once
/// \file stats.hpp
/// \brief Per-rank communication counters.
///
/// Because every collective in mps is built from point-to-point sends, the
/// runtime can count exactly how many messages and words each rank injects,
/// attributed to the operation that caused them. These counters are what the
/// cost-model validation tests and the Tab. I bench compare against the
/// paper's alpha-beta-gamma formulas.

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace ptucker::mps {

/// Operation kinds for attribution of p2p traffic.
enum class OpKind : int {
  P2P = 0,        ///< user-level send/recv (e.g. the Gram shift ring)
  Barrier,
  Broadcast,
  Reduce,
  AllReduce,
  AllGather,
  ReduceScatter,  ///< kept only for bench/suite's reduce_scatter metric key
  Gather,
  Scatter,
  kCount
};

[[nodiscard]] const char* op_name(OpKind kind);

/// Counters for one rank. "Words" are 8-byte doubles, the unit of W in the
/// paper's model.
struct CommStats {
  static constexpr int kNumOps = static_cast<int>(OpKind::kCount);

  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::array<std::uint64_t, kNumOps> op_messages{};
  std::array<std::uint64_t, kNumOps> op_bytes{};

  [[nodiscard]] double words_sent() const {
    return static_cast<double>(bytes_sent) / 8.0;
  }
  [[nodiscard]] double op_words(OpKind kind) const {
    return static_cast<double>(op_bytes[static_cast<int>(kind)]) / 8.0;
  }
  [[nodiscard]] std::uint64_t op_message_count(OpKind kind) const {
    return op_messages[static_cast<int>(kind)];
  }

  void record(OpKind kind, std::uint64_t bytes) {
    messages_sent += 1;
    bytes_sent += bytes;
    op_messages[static_cast<int>(kind)] += 1;
    op_bytes[static_cast<int>(kind)] += bytes;
  }

  CommStats& operator+=(const CommStats& other) {
    messages_sent += other.messages_sent;
    bytes_sent += other.bytes_sent;
    for (int i = 0; i < kNumOps; ++i) {
      op_messages[i] += other.op_messages[i];
      op_bytes[i] += other.op_bytes[i];
    }
    return *this;
  }

  void clear() { *this = CommStats{}; }
};

/// Thrown by the schedule verifier (parcoach-style collective
/// matching, see Universe::verify_schedule) when ranks of one communicator
/// executed divergent collective sequences, caught at finalize instead of
/// as a deadlock or a silently mismatched reduction.
class ScheduleMismatchError : public Error {
 public:
  explicit ScheduleMismatchError(const std::string& what) : Error(what) {}
};

/// Rolling fingerprint of the collective calls one rank issued on one
/// communicator context: an order-sensitive FNV-style hash over
/// (op, payload bytes) plus a call count. Two ranks of the same
/// communicator with equal (hash, calls) executed the same schedule with
/// overwhelming probability; any divergence — an extra call, a reordered
/// pair, a mismatched payload size — changes the hash.
struct ContextFingerprint {
  static constexpr std::uint64_t kOffset = 1469598103934665603ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  std::uint64_t hash = kOffset;
  std::uint64_t calls = 0;
  /// The most recent call, kept so a mismatch can be reported by name —
  /// the hash alone cannot be inverted back into an op sequence.
  OpKind last_kind = OpKind::P2P;  ///< P2P = no collective issued yet
  std::uint64_t last_bytes = 0;

  void mix(OpKind kind, std::uint64_t bytes) {
    hash = (hash ^ static_cast<std::uint64_t>(kind)) * kPrime;
    hash = (hash ^ bytes) * kPrime;
    ++calls;
    last_kind = kind;
    last_bytes = bytes;
  }
  bool operator==(const ContextFingerprint&) const = default;
};

/// One rank's fingerprints, one entry per communicator context, in the
/// order the rank first saw each context.
using ScheduleFingerprints =
    std::vector<std::pair<std::uint64_t, ContextFingerprint>>;

/// The op kind the calling thread is currently executing (collectives set
/// this around their p2p traffic so sends are attributed correctly).
[[nodiscard]] OpKind current_op();
void set_current_op(OpKind kind);

/// RAII attribution scope used inside collectives. Nested scopes do NOT
/// override the outermost one: an all-reduce implemented as reduce-scatter +
/// all-gather attributes all of its traffic to AllReduce.
class OpScope {
 public:
  explicit OpScope(OpKind kind) : saved_(current_op()) {
    if (saved_ == OpKind::P2P) set_current_op(kind);
  }
  ~OpScope() { set_current_op(saved_); }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  OpKind saved_;
};

}  // namespace ptucker::mps
