#pragma once
/// \file ttm.hpp
/// \brief Distributed tensor-times-matrix Z = Y x_n M (paper Sec. V-B).
///
/// M is K x Jn and replicated; Y's mode-n blocks are spread over the Pn
/// ranks of the processor column, so each rank contributes the partial
/// product of M's matching column block with its local tensor, and the
/// partials are summed within the processor column. Two communication
/// schedules are provided:
///  - Blocked (Alg. 3): Pn rounds, round l reducing the K/Pn-row output
///    block to its owner — bounded temporaries, Pn binomial reduces, each
///    initiated nonblocking and drained under the next round's multiply.
///  - ReduceScatter: the K output rows are multiplied and reduce-scattered
///    in chunk groups, each group's collective in flight during the next
///    group's multiply (the chunk count comes from the overlap-aware
///    pipeline model; one chunk degenerates to the original single
///    multiply + reduce-scatter).
/// Auto prices both schedules with costmodel::pipeline_chunks /
/// pipeline_makespan — the paper's K <= Jn/Pn switch is the word-term limit
/// of that comparison; with Pn = 1 either path degenerates to one local
/// call with no communication at all.

#include "dist/dist_tensor.hpp"
#include "tensor/local_kernels.hpp"

namespace ptucker::dist {

enum class TtmAlgo {
  Auto,           ///< cheaper overlapped schedule under the pipeline model
  Blocked,        ///< paper Alg. 3: Pn pipelined rounds of binomial reduces
  ReduceScatter,  ///< chunk-pipelined multiply + reduce-scatter
};

/// Collective: Z = Y x_n M with M of size K x Jn (decomposition passes U^T,
/// reconstruction passes U). The result lives on the same grid with mode n
/// re-blocked to extent K.
[[nodiscard]] DistTensor ttm(const DistTensor& x, const tensor::Matrix& m,
                             int mode, TtmAlgo algo = TtmAlgo::Auto);

/// Collective: apply ttm (TtmAlgo::Auto) for each mode listed in \p order,
/// using ms[mode] (entries for unlisted modes may be null).
[[nodiscard]] DistTensor ttm_chain(const DistTensor& x,
                                   const std::vector<const tensor::Matrix*>& ms,
                                   const std::vector<int>& order);

}  // namespace ptucker::dist
