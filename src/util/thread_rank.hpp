#pragma once
/// \file thread_rank.hpp
/// \brief The calling thread's rank. The message-passing runtime registers
/// it on every rank thread so trace events are attributable to a rank.

namespace ptucker::util {

/// Register the calling thread's rank (-1 = not a rank).
void set_thread_rank(int rank);
[[nodiscard]] int thread_rank();

}  // namespace ptucker::util
