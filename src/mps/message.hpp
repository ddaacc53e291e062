#pragma once
/// \file message.hpp
/// \brief The unit of communication in the mps runtime.
///
/// mps ("message passing substrate") reproduces the distributed-memory MPI
/// programming model on one node: every rank is a thread with private data,
/// and the *only* way data moves between ranks is by value through Message
/// payloads. Matching follows MPI semantics: a receive names (communicator
/// context, source, tag) and matches the earliest such message (per-source
/// FIFO order is guaranteed by the single-deque mailbox).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace ptucker::mps {

/// A single in-flight message.
struct Message {
  /// Communicator context id — isolates traffic of different communicators
  /// (split sub-communicators get fresh contexts from the Universe registry).
  std::uint64_t context = 0;
  /// Sender's world rank (mailboxes are addressed by world rank).
  int src_world = -1;
  /// User tag; collectives use reserved internal tags.
  int tag = 0;
  /// Payload, always copied on send — ranks never share buffers.
  std::vector<std::byte> payload;
};

/// std::memcpy that accepts empty ranges. An empty span or vector may hold
/// a null pointer, and passing one to std::memcpy is undefined even when
/// \p n is 0, so every payload copy in mps goes through here.
inline void copy_bytes(void* dst, const void* src, std::size_t n) {
  if (n != 0) std::memcpy(dst, src, n);
}

}  // namespace ptucker::mps
