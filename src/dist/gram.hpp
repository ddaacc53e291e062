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
/// is in flight while the cross-Gram of block k runs. GramAlgo only picks
/// the diagonal-block kernel; every choice gives bit-identical columns.

#include "dist/dist_tensor.hpp"
#include "tensor/local_kernels.hpp"

namespace ptucker::dist {

enum class GramAlgo {
  Auto,             ///< ExploitSymmetry for short rings, FullKernel else
  ExploitSymmetry,  ///< packed symmetric kernel for the diagonal block
  FullKernel,       ///< full-storage kernel for the diagonal block
};

/// The GramAlgo::Auto kernel policy, shared with the cost model so
/// costmodel::sthosvd_cost / prefer_tsqr always model what the runtime
/// executes: short rings are flop-bound and take the packed symmetric
/// kernel; longer rings are communication-bound and take the full-storage
/// kernel, whose time hides behind the ring transfers.
[[nodiscard]] constexpr bool auto_gram_prefers_symmetric(int pn) {
  return pn <= 2;
}

/// A rank's block column of the Gram matrix: cols is Jn x range.size(),
/// holding columns [range.lo, range.hi) of the full Jn x Jn matrix.
struct GramColumns {
  tensor::Matrix cols;
  util::Range range;
};

/// Collective: compute this rank's Gram block column for mode n.
[[nodiscard]] GramColumns gram(const DistTensor& x, int mode,
                               GramAlgo algo = GramAlgo::Auto);

}  // namespace ptucker::dist
