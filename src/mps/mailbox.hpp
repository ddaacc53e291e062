#pragma once
/// \file mailbox.hpp
/// \brief Single-consumer mailbox with (context, source, tag) matching.
///
/// Each rank owns exactly one mailbox; any rank may push to it, only the
/// owner pops. Messages from a given sender are matched in FIFO order, which
/// is the ordering guarantee that makes back-to-back collectives on the same
/// communicator safe without sequence numbers (same reasoning as MPI's
/// non-overtaking rule).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "mps/message.hpp"

namespace ptucker::mps {

class Universe;

class Mailbox {
 public:
  explicit Mailbox(Universe* universe) : universe_(universe) {
    queue_.reserve(kReserved);
  }

  /// Deliver a message (called by senders). Never blocks.
  void push(Message&& msg);

  /// Block until a message matching (context, src_world, tag) is available
  /// and return it. Throws AbortError if the universe aborts, and
  /// InternalError after \p timeout elapses (deadlock detection).
  Message pop_matching(std::uint64_t context, int src_world, int tag,
                       std::chrono::milliseconds timeout);

  /// Non-blocking variant: return the matching message if one is already
  /// queued, std::nullopt otherwise. Never waits; this is the probe that
  /// drives CollectiveHandle::test() progress. Throws AbortError if the
  /// universe has aborted (same contract as pop_matching).
  std::optional<Message> try_pop_matching(std::uint64_t context, int src_world,
                                          int tag);

  /// Number of queued messages (diagnostics / quiescence checks).
  [[nodiscard]] std::size_t pending() const;

  /// Wake the owner if it is blocked (used by Universe::abort).
  void interrupt();

 private:
  // Reserved once, by the thread that builds the Universe, so a push
  // allocates nothing: queue storage allocated by a pushing rank thread
  // would outlive the parallel region inside that thread's heap. Queues
  // hold a few messages per peer (2 at most in the benchmark workloads);
  // a longer one grows the vector, which keeps that capacity.
  static constexpr std::size_t kReserved = 64;

  Universe* universe_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Message> queue_;
};

}  // namespace ptucker::mps
