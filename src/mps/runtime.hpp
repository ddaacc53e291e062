#pragma once
/// \file runtime.hpp
/// \brief Launches SPMD parallel regions: one thread per rank.
///
/// Usage:
/// \code
///   mps::Runtime rt(16);
///   rt.run([&](mps::Comm& comm) {
///     // SPMD body; comm.rank() in [0, 16)
///   });
///   auto words = rt.max_stats().words_sent();
/// \endcode
///
/// Exceptions thrown by any rank abort the whole region (all blocked ranks
/// are woken with AbortError) and the first-thrown exception is rethrown to
/// the caller.

#include <functional>
#include <memory>

#include "mps/comm.hpp"

namespace ptucker::mps {

class Runtime {
 public:
  explicit Runtime(int world_size);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] int world_size() const;

  /// Execute \p body on every rank concurrently; returns when all complete.
  /// On success, verifies that the ranks of each communicator ran the same
  /// collective schedule (ScheduleMismatchError otherwise) and that all
  /// mailboxes drained.
  void run(const std::function<void(Comm&)>& body);

  /// Communication counters, available between runs.
  [[nodiscard]] const CommStats& rank_stats(int rank) const;
  [[nodiscard]] CommStats total_stats() const;
  [[nodiscard]] CommStats max_stats() const;
  void reset_stats();

  /// Deadlock-detection timeout for blocking receives (default 120 s).
  void set_recv_timeout_ms(long ms);

  [[nodiscard]] Universe& universe() { return *universe_; }

 private:
  std::unique_ptr<Universe> universe_;
};

/// One-shot convenience: run \p body on \p world_size ranks.
void run(int world_size, const std::function<void(Comm&)>& body);

}  // namespace ptucker::mps
