#pragma once
/// \file mode_order.hpp
/// \brief The ST-HOSVD mode processing order (paper Sec. VIII-C).
///
/// The order in which ST-HOSVD processes modes does not change the error
/// guarantee but strongly affects cost: each truncation shrinks the working
/// tensor for all later modes. Neither of the paper's greedy heuristics is
/// always optimal (Fig. 8b), so callers pass an explicit permutation;
/// bench/fig8b_mode_order sweeps them.

#include <vector>

namespace ptucker::core {

/// The processing order for an order-\p order tensor: 0, 1, ..., N-1 when
/// \p mode_order is empty, else \p mode_order itself. Throws
/// InvalidArgument unless it is a permutation of all modes.
[[nodiscard]] std::vector<int> resolve_mode_order(
    int order, const std::vector<int>& mode_order);

}  // namespace ptucker::core
