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

/// --- overlap-aware terms ------------------------------------------------------
/// The nonblocking collectives let a schedule hide transfer time behind
/// compute (initiate, compute, complete). These terms price that hiding so
/// TtmAlgo::Auto can compare overlapped schedules instead of assuming every
/// word serializes in front of the flops.

/// Chunked ring reduce-scatter (dist/ttm.cpp's pipelined schedule): the
/// destination blocks travel in `chunks` back-to-back collectives, each a
/// full ring round. Words are unchanged — every rank still injects
/// (p-1)/p * w — but the latency term multiplies by the chunk count
/// (zero-length chunks still travel as empty messages).
[[nodiscard]] CommVolume impl_reduce_scatter_chunked(int p, double w,
                                                     int chunks);

/// Communication seconds left exposed on the critical path when comm_s of
/// transfer is overlapped with compute_s of independent compute:
/// max(comm_s - compute_s, 0).
[[nodiscard]] double exposed_comm(double compute_s, double comm_s);

/// Makespan of a two-stage (compute -> communicate) pipeline over `chunks`
/// equal chunks with a fixed per-chunk initiation overhead:
///   (a + b) + (chunks - 1) * max(a, b) + chunks * overhead
/// with a = compute_s/chunks, b = comm_s/chunks. chunks = 1 is the
/// non-overlapped baseline compute_s + comm_s + overhead.
[[nodiscard]] double pipeline_makespan(double compute_s, double comm_s,
                                       double per_chunk_overhead_s, int chunks);

/// The chunk count in [1, max_chunks] minimizing pipeline_makespan, with the
/// modeled makespan at that count.
struct PipelinePlan {
  int chunks = 1;
  double seconds = 0.0;
};
[[nodiscard]] PipelinePlan pipeline_chunks(double compute_s, double comm_s,
                                           double per_chunk_overhead_s,
                                           int max_chunks);

}  // namespace ptucker::costmodel
