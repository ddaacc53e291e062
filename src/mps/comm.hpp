#pragma once
/// \file comm.hpp
/// \brief Communicator handle: rank/size, point-to-point transfers, split.
///
/// A Comm names an ordered group of world ranks plus a context id that
/// isolates its traffic. Comm values are cheap shared handles; SPMD code
/// must call collective operations (split, barrier, and everything in
/// collectives.hpp) on all members in the same order.

#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "mps/universe.hpp"

namespace ptucker::mps {

class Comm {
 public:
  /// Null communicator (rank not in group). valid() == false.
  Comm() = default;

  /// World communicator for one rank (made by the Runtime).
  static Comm world(Universe* universe, int my_world_rank);

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] int rank() const { return state_->my_rank; }
  [[nodiscard]] int size() const {
    return static_cast<int>(state_->group.size());
  }
  [[nodiscard]] Universe& universe() const { return *state_->universe; }
  [[nodiscard]] int world_rank(int r) const {
    return state_->group[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] int my_world_rank() const {
    return state_->group[static_cast<std::size_t>(state_->my_rank)];
  }

  /// --- byte-level point-to-point ----------------------------------------
  /// Eager, non-blocking send: the payload is copied into the destination
  /// mailbox immediately (like an MPI buffered send).
  void send_bytes(std::span<const std::byte> buf, int dest, int tag) const;

  /// Blocking receive; the matched payload size must equal buf.size().
  void recv_bytes(std::span<std::byte> buf, int src, int tag) const;

  /// Receive whatever payload is matched, returning it (size discovered
  /// at match time — used by gatherv-style operations).
  [[nodiscard]] std::vector<std::byte> recv_bytes_any_size(int src,
                                                           int tag) const;

  /// Non-blocking probe: pop and return the matching payload if it has
  /// already arrived, std::nullopt otherwise. Drives CollectiveHandle
  /// progress without stalling the caller's compute.
  [[nodiscard]] std::optional<std::vector<std::byte>> try_recv_bytes_any_size(
      int src, int tag) const;

  /// --- typed point-to-point ----------------------------------------------
  template <class T>
  void send(std::span<const T> buf, int dest, int tag) const {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(std::as_bytes(buf), dest, tag);
  }

  template <class T>
  void recv(std::span<T> buf, int src, int tag) const {
    static_assert(std::is_trivially_copyable_v<T>);
    recv_bytes(std::as_writable_bytes(buf), src, tag);
  }

  /// --- communicator management -------------------------------------------
  /// Collective: partitions the group by \p color (color < 0 => the caller
  /// gets a null Comm); members of each color are ordered by (key, rank).
  [[nodiscard]] Comm split(int color, int key) const;

  /// Collective: dissemination barrier (ceil(log2 P) rounds of p2p).
  void barrier() const;

  /// Allocate the next nonblocking-collective sequence number for this
  /// communicator. Every istart-style initiation takes exactly one, and all
  /// of an op's internal tags derive from it, so concurrently in-flight ops
  /// on one communicator never cross-match. Initiations are collective:
  /// every member must initiate the same ops in the same order (the
  /// schedule verifier enforces this), which keeps the per-rank counters in
  /// lockstep without any extra traffic.
  [[nodiscard]] std::uint64_t alloc_async_seq() const {
    return state_->next_async_seq.fetch_add(1, std::memory_order_relaxed);
  }

  /// Stats for this rank (world-level counters).
  [[nodiscard]] CommStats& my_stats() const {
    return state_->universe->stats(my_world_rank());
  }

  /// Record one top-level collective call into this rank's schedule
  /// fingerprint for this communicator's context. Calls nested inside
  /// another collective (e.g. the reduce-scatter inside all-reduce) are
  /// suppressed with the same rule OpScope uses for traffic attribution.
  /// Collectives call this at entry, before any early return, so a P==1
  /// call still counts. \p bytes must be a value every member computes
  /// identically (pass 0 for varied-size collectives).
  void note_collective(OpKind kind, std::uint64_t bytes) const {
    if (current_op() != OpKind::P2P) return;
    state_->universe->fingerprint_record(my_world_rank(), state_->context,
                                         kind, bytes);
  }

 private:
  struct State {
    Universe* universe = nullptr;
    std::uint64_t context = 0;
    std::vector<int> group;  // world ranks, ordered; my position = my_rank
    int my_rank = -1;
    std::atomic<std::uint64_t> next_split_seq{0};
    std::atomic<std::uint64_t> next_async_seq{0};
  };
  std::shared_ptr<State> state_;

  explicit Comm(std::shared_ptr<State> state) : state_(std::move(state)) {}
};

}  // namespace ptucker::mps
