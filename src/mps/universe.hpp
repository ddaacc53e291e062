#pragma once
/// \file universe.hpp
/// \brief Shared runtime state for one distributed "machine": mailboxes,
/// abort propagation, communicator context registry, and per-rank stats.
///
/// The Universe is the stand-in for the physical network. Ranks interact
/// with it only through their Comm handles; no user data lives here, just
/// in-flight messages.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "mps/mailbox.hpp"
#include "mps/stats.hpp"
#include "util/error.hpp"

namespace ptucker::mps {

/// Thrown in every blocked rank when another rank fails: unwinds the whole
/// parallel region so the first error can be reported.
class AbortError : public Error {
 public:
  explicit AbortError(const std::string& what) : Error(what) {}
};

class Universe {
 public:
  explicit Universe(int world_size);

  [[nodiscard]] int world_size() const { return world_size_; }

  Mailbox& mailbox(int world_rank);

  /// --- abort propagation -------------------------------------------------
  void abort(const std::string& reason);
  [[nodiscard]] bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::string abort_reason() const;
  void clear_abort();

  /// --- communicator contexts ---------------------------------------------
  /// Returns the same fresh context id to every rank requesting the key
  /// (parent context, split sequence number, color). Collision-free by
  /// construction (registry), unlike hash-derived schemes.
  std::uint64_t register_context(std::uint64_t parent, std::uint64_t seq,
                                 int color);

  /// --- stats ---------------------------------------------------------------
  CommStats& stats(int world_rank);
  [[nodiscard]] const CommStats& stats(int world_rank) const;
  [[nodiscard]] CommStats total_stats() const;
  [[nodiscard]] CommStats max_stats() const;  ///< per-field max over ranks
  void reset_stats();

  /// --- collective schedule verification (always on) ------------------------
  /// Every top-level collective entry mixes (op, payload bytes) into a
  /// per-rank, per-communicator-context rolling hash, and verify_schedule()
  /// — run by the Runtime at finalize — checks that all ranks sharing a
  /// context executed identical sequences. A rank that skips, reorders, or
  /// resizes a collective is flagged deterministically instead of silently
  /// corrupting a reduction. The cost is a scan of the rank's few contexts
  /// and one hash mix per collective call.
  ///
  /// Called by each rank when it constructs a Comm for \p context, so a
  /// member that then never calls a collective still shows up (calls == 0)
  /// and is distinguishable from "never had this communicator".
  void fingerprint_seed(int world_rank, std::uint64_t context);
  /// Mix one collective call into \p world_rank's fingerprint for \p context.
  void fingerprint_record(int world_rank, std::uint64_t context, OpKind kind,
                          std::uint64_t bytes);
  /// Throws ScheduleMismatchError if ranks sharing a context diverged. Call
  /// only after the parallel region has joined (reads all ranks' entries).
  void verify_schedule() const;
  void reset_schedule();
  /// This rank's per-context fingerprints (tests).
  [[nodiscard]] const ScheduleFingerprints& schedule_fingerprints(
      int world_rank) const;

  /// --- in-flight nonblocking-collective accounting --------------------------
  /// A CollectiveHandle destroyed before completing cannot throw from its
  /// destructor, so it records the leak here; the Runtime raises it at
  /// finalize (before quiescence, whose mailbox-leak diagnosis would be the
  /// unactionable symptom of the same bug).
  void note_async_leak(const std::string& description);
  void clear_async_leaks();
  /// Throws InternalError naming every leaked op if any handle was dropped
  /// while still in flight.
  void assert_no_async_leaks() const;

  /// Timeout applied to blocking receives (deadlock detection).
  void set_recv_timeout(std::chrono::milliseconds t) { recv_timeout_ = t; }
  [[nodiscard]] std::chrono::milliseconds recv_timeout() const {
    return recv_timeout_;
  }

  /// Throws InternalError if any mailbox still holds messages (message
  /// leaks usually mean tag mismatches). Called after successful runs.
  void assert_quiescent() const;

 private:
  int world_size_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  // Stats are padded to their own cache lines to avoid false sharing.
  struct alignas(64) PaddedStats {
    CommStats stats;
  };
  std::vector<PaddedStats> stats_;

  // Each rank writes only its own entry from its own thread; verify reads
  // after the join, so no locking is needed. The constructor reserves room
  // for a run's contexts, so the rank threads do not allocate here.
  struct alignas(64) PaddedSchedule {
    ScheduleFingerprints contexts;
  };
  std::vector<PaddedSchedule> schedules_;

  std::atomic<bool> aborted_{false};
  mutable std::mutex abort_mutex_;
  std::string abort_reason_;

  mutable std::mutex async_leak_mutex_;
  std::vector<std::string> async_leaks_;

  std::mutex context_mutex_;
  std::map<std::tuple<std::uint64_t, std::uint64_t, int>, std::uint64_t>
      context_registry_;
  std::uint64_t next_context_ = 1;  // 0 is the world communicator

  std::chrono::milliseconds recv_timeout_{120000};
};

}  // namespace ptucker::mps
