#include "core/mode_order.hpp"

#include <numeric>

#include "util/error.hpp"

namespace ptucker::core {

std::vector<int> resolve_mode_order(int order,
                                    const std::vector<int>& mode_order) {
  if (mode_order.empty()) {
    std::vector<int> natural(static_cast<std::size_t>(order));
    std::iota(natural.begin(), natural.end(), 0);
    return natural;
  }
  PT_REQUIRE(static_cast<int>(mode_order.size()) == order,
             "mode order must be a permutation of all modes");
  std::vector<bool> seen(static_cast<std::size_t>(order), false);
  for (int n : mode_order) {
    PT_REQUIRE(n >= 0 && n < order && !seen[static_cast<std::size_t>(n)],
               "mode order is not a permutation");
    seen[static_cast<std::size_t>(n)] = true;
  }
  return mode_order;
}

}  // namespace ptucker::core
