#pragma once
/// \file collective_model.hpp
/// \brief The alpha-beta-gamma communication model of paper Tab. I, plus the
/// exact per-rank traffic formulas of our own collective implementations.
///
/// "Paper" formulas express critical-path cost assuming bandwidth-optimal
/// collectives: time = alpha * messages + beta * words (reduce flops
/// ignored, as the paper does). "Impl" formulas predict the exact number of
/// messages/words each rank *injects* under our ring/binomial algorithms —
/// the quantities the runtime counters measure, asserted by the tests.

#include <cstddef>

namespace ptucker::costmodel {

/// Critical-path communication volume: latency term (message count) and
/// bandwidth term (word count).
struct CommVolume {
  double messages = 0.0;
  double words = 0.0;
};

/// --- paper Tab. I -------------------------------------------------------------
[[nodiscard]] CommVolume paper_send(double w);
[[nodiscard]] CommVolume paper_allgather(int p, double w);
[[nodiscard]] CommVolume paper_reduce(int p, double w);
[[nodiscard]] CommVolume paper_allreduce(int p, double w);

/// --- exact per-rank injected traffic of the mps implementations ---------------
/// Ring all-gather of per-rank blocks of w/p words (total w).
[[nodiscard]] CommVolume impl_allgather(int p, double w);
/// Ring reduce-scatter of full vectors of w words.
[[nodiscard]] CommVolume impl_reduce_scatter(int p, double w);
/// All-reduce of w words (reduce-scatter + all-gather when w >= 2p,
/// otherwise binomial reduce + broadcast; this mirrors mps::allreduce).
[[nodiscard]] CommVolume impl_allreduce(int p, double w);
/// Binomial reduce: worst-case per-rank injected traffic (non-roots send
/// exactly once).
[[nodiscard]] CommVolume impl_reduce(int p, double w);
/// Dissemination barrier.
[[nodiscard]] CommVolume impl_barrier(int p);

}  // namespace ptucker::costmodel
