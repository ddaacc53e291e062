#pragma once
/// \file gram.hpp
/// \brief Distributed Gram matrix S = Y(n) Y(n)^T (paper Alg. 4).
///
/// Each rank ends up with the block column S(:, range) matching its mode-n
/// index range, replicated across its processor row. The kernel shifts local
/// blocks around the mode-n "processor column" (ranks differing only in
/// coordinate n own the same unfolding columns but different row blocks),
/// computes one cross-Gram per received block, and all-reduces the assembled
/// block column over the "processor row" to sum over unfolding columns.
/// The ring is always the overlapped one (Sec. IX overlap item): block k+1
/// is in flight while the cross-Gram of block k runs. The diagonal block
/// uses the packed symmetric kernel (Sec. V-C's "up to a factor of two"),
/// which is bit-identical to the full-storage one.

#include "dist/dist_tensor.hpp"
#include "tensor/local_kernels.hpp"

namespace ptucker::dist {

/// Whether gram() runs the packed symmetric diagonal-block kernel on a
/// ring of \p pn ranks: always. Kept for callers that pass it to
/// costmodel::gram_cost as the kernel gram() runs.
[[nodiscard]] constexpr bool auto_gram_prefers_symmetric(int /*pn*/) {
  return true;
}

/// A rank's block column of the Gram matrix: cols is Jn x range.size(),
/// holding columns [range.lo, range.hi) of the full Jn x Jn matrix.
struct GramColumns {
  tensor::Matrix cols;
  util::Range range;
};

/// Collective: compute this rank's Gram block column for mode n.
[[nodiscard]] GramColumns gram(const DistTensor& x, int mode);

}  // namespace ptucker::dist
