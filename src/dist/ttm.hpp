#pragma once
/// \file ttm.hpp
/// \brief Distributed tensor-times-matrix Z = Y x_n M (paper Sec. V-B).
///
/// M is K x Jn and replicated; Y's mode-n blocks are spread over the Pn
/// ranks of the processor column, so each rank contributes the partial
/// product of M's matching column block with its local tensor, and the
/// partials are summed within the processor column. The schedule is the
/// paper's Alg. 3: Pn rounds, round l reducing the l-th output block to its
/// owner — bounded temporaries, Pn binomial reduces, each initiated
/// nonblocking and drained under the next round's multiply. With Pn = 1 it
/// degenerates to one local call with no communication at all.

#include "dist/dist_tensor.hpp"
#include "tensor/local_kernels.hpp"

namespace ptucker::dist {

/// Collective: Z = Y x_n M with M of size K x Jn (decomposition passes U^T,
/// reconstruction passes U). The result lives on the same grid with mode n
/// re-blocked to extent K.
[[nodiscard]] DistTensor ttm(const DistTensor& x, const tensor::Matrix& m,
                             int mode);

/// Collective: apply ttm for each mode listed in \p order, using ms[mode]
/// (entries for unlisted modes may be null).
[[nodiscard]] DistTensor ttm_chain(const DistTensor& x,
                                   const std::vector<const tensor::Matrix*>& ms,
                                   const std::vector<int>& order);

}  // namespace ptucker::dist
