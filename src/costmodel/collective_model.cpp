#include "costmodel/collective_model.hpp"

#include <cmath>

namespace ptucker::costmodel {

namespace {
double log2_ceil(int p) {
  double l = 0.0;
  int v = 1;
  while (v < p) {
    v <<= 1;
    l += 1.0;
  }
  return l;
}
double frac(int p) {
  return static_cast<double>(p - 1) / static_cast<double>(p);
}
}  // namespace

CommVolume paper_send(double w) { return {1.0, w}; }

CommVolume paper_allgather(int p, double w) {
  if (p <= 1) return {0.0, 0.0};
  return {log2_ceil(p), frac(p) * w};
}

CommVolume paper_reduce(int p, double w) {
  if (p <= 1) return {0.0, 0.0};
  return {log2_ceil(p), frac(p) * w};
}

CommVolume paper_allreduce(int p, double w) {
  if (p <= 1) return {0.0, 0.0};
  return {2.0 * log2_ceil(p), 2.0 * frac(p) * w};
}

CommVolume impl_allgather(int p, double w) {
  if (p <= 1) return {0.0, 0.0};
  // Ring: p-1 sends per rank; every rank forwards all blocks except the one
  // it finishes with: (p-1)/p * w words for uniform blocks.
  return {static_cast<double>(p - 1), frac(p) * w};
}

CommVolume impl_reduce_scatter(int p, double w) {
  if (p <= 1) return {0.0, 0.0};
  // Ring: p-1 sends per rank, total words = w - (own block) = (p-1)/p * w.
  return {static_cast<double>(p - 1), frac(p) * w};
}

CommVolume impl_allreduce(int p, double w) {
  if (p <= 1 || w == 0.0) return {0.0, 0.0};
  if (w >= 2.0 * static_cast<double>(p)) {
    const CommVolume rs = impl_reduce_scatter(p, w);
    const CommVolume ag = impl_allgather(p, w);
    return {rs.messages + ag.messages, rs.words + ag.words};
  }
  // Binomial reduce + broadcast: a rank sends at most once in the reduce
  // (w words) and at most ceil(log2 p) times in the broadcast.
  return {1.0 + log2_ceil(p), (1.0 + log2_ceil(p)) * w};
}

CommVolume impl_reduce(int p, double w) {
  if (p <= 1) return {0.0, 0.0};
  // Non-root ranks send exactly one message of w words; interior tree nodes
  // also receive up to log2(p). Injected traffic per rank <= w.
  return {1.0, w};
}

CommVolume impl_barrier(int p) {
  if (p <= 1) return {0.0, 0.0};
  return {log2_ceil(p), 0.0};
}

}  // namespace ptucker::costmodel
