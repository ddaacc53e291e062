#include "costmodel/tucker_model.hpp"

#include <algorithm>
#include <cmath>

#include "costmodel/collective_model.hpp"
#include "util/error.hpp"

namespace ptucker::costmodel {

namespace {

double dprod(const Dims& dims) {
  double p = 1.0;
  for (std::size_t d : dims) p *= static_cast<double>(d);
  return p;
}

double grid_size(const std::vector<int>& grid) {
  double p = 1.0;
  for (int g : grid) p *= static_cast<double>(g);
  return p;
}

double log2_ceil(int p) {
  double l = 0.0;
  int v = 1;
  while (v < p) {
    v <<= 1;
    l += 1.0;
  }
  return l;
}

}  // namespace

KernelCost ttm_cost(const Dims& dims, std::size_t k, int mode,
                    const std::vector<int>& grid) {
  PT_REQUIRE(dims.size() == grid.size(), "ttm_cost: order mismatch");
  const double j = dprod(dims);
  const double p = grid_size(grid);
  const double pn = static_cast<double>(grid[static_cast<std::size_t>(mode)]);
  const double jn = static_cast<double>(dims[static_cast<std::size_t>(mode)]);
  const double jhat = j / jn;
  KernelCost cost;
  cost.flops = 2.0 * j * static_cast<double>(k) / p;
  cost.messages = pn * log2_ceil(static_cast<int>(pn));
  cost.words = (pn - 1.0) * jhat * static_cast<double>(k) / p;
  return cost;
}

KernelCost gram_cost(const Dims& dims, int mode, const std::vector<int>& grid,
                     bool symmetric) {
  PT_REQUIRE(dims.size() == grid.size(), "gram_cost: order mismatch");
  const double j = dprod(dims);
  const double p = grid_size(grid);
  const double pn = static_cast<double>(grid[static_cast<std::size_t>(mode)]);
  const double phat = p / pn;
  const double jn = static_cast<double>(dims[static_cast<std::size_t>(mode)]);
  KernelCost cost;
  // Each rank's diagonal block is (Jn/Pn) x (Jn/Pn) over k = Jn_hat/Phat
  // columns: 2 (Jn/Pn)^2 k = 2 (Jn/Pn) J/P flops in full storage, and
  // (Jn/Pn)((Jn/Pn)+1) k = (Jn/Pn + 1) J/P for the symmetric kernel, which
  // computes only its lower triangle. The Pn-1 cross-Gram blocks of the
  // ring are rectangular either way.
  const double jn_loc = jn / pn;
  const double diag_flops =
      symmetric ? (jn_loc + 1.0) * j / p : 2.0 * jn_loc * j / p;
  cost.flops = diag_flops + 2.0 * (pn - 1.0) * jn_loc * j / p;
  // Ring shift of the local tensor (Pn-1 exchanges of J/P words) + the
  // all-reduce of the Jn x Jn/Pn block column across the processor row.
  cost.messages = 2.0 * (pn - 1.0) + 2.0 * log2_ceil(static_cast<int>(phat));
  cost.words =
      2.0 * (pn - 1.0) * j / p + 2.0 * (phat - 1.0) * jn * jn / p;
  return cost;
}

KernelCost evecs_cost(std::size_t in, int mode, const std::vector<int>& grid) {
  const double pn = static_cast<double>(grid[static_cast<std::size_t>(mode)]);
  const double din = static_cast<double>(in);
  KernelCost cost;
  cost.flops = (10.0 / 3.0) * din * din * din;
  cost.messages = log2_ceil(static_cast<int>(pn));
  cost.words = (pn - 1.0) / pn * din * din;
  return cost;
}

KernelCost tsqr_cost(const Dims& dims, int mode,
                     const std::vector<int>& grid) {
  PT_REQUIRE(dims.size() == grid.size(), "tsqr_cost: order mismatch");
  const double j = dprod(dims);
  const double p = grid_size(grid);
  const double pn = static_cast<double>(grid[static_cast<std::size_t>(mode)]);
  const double jn = static_cast<double>(dims[static_cast<std::size_t>(mode)]);
  const double jhat = j / jn;
  const double logp = log2_ceil(static_cast<int>(p));
  KernelCost cost;
  // Row exchange within the processor column: each rank parts with
  // (Pn-1)/Pn of its J/P local block (send + receive counted, matching the
  // gram_cost ring convention).
  cost.messages = 2.0 * (pn - 1.0);
  cost.words = 2.0 * (pn - 1.0) / pn * j / p;
  // Local Householder QR of the (Jhat_n/P) x Jn full-width slab.
  cost.flops = 2.0 * (jhat / p) * jn * jn;
  // Binomial combine tree + broadcast of the Jn x Jn R: each level stacks
  // two R factors and re-factors (QR of 2Jn x Jn ~ (10/3) Jn^3).
  cost.flops += logp * (10.0 / 3.0) * jn * jn * jn;
  cost.messages += 2.0 * logp;
  cost.words += 2.0 * logp * jn * jn;
  // Redundant Jacobi SVD of R^T on every rank (same cubic as the Gram
  // route's redundant eigensolve).
  cost.flops += (10.0 / 3.0) * jn * jn * jn;
  return cost;
}

bool prefer_tsqr(const Dims& dims, int mode, const std::vector<int>& grid,
                 const Machine& machine) {
  KernelCost gram_route = gram_cost(dims, mode, grid, /*symmetric=*/true);
  gram_route += evecs_cost(dims[static_cast<std::size_t>(mode)], mode, grid);
  return machine.seconds(tsqr_cost(dims, mode, grid)) <
         machine.seconds(gram_route);
}

KernelCost sketch_cost(const Dims& dims, int mode, std::size_t width,
                       int power_iterations, const std::vector<int>& grid) {
  PT_REQUIRE(dims.size() == grid.size(), "sketch_cost: order mismatch");
  const double j = dprod(dims);
  const double p = grid_size(grid);
  const double pn = static_cast<double>(grid[static_cast<std::size_t>(mode)]);
  const double phat = p / pn;
  const double jn = static_cast<double>(dims[static_cast<std::size_t>(mode)]);
  const double jhat = j / jn;
  const double w = static_cast<double>(width);
  const double passes = 1.0 + static_cast<double>(power_iterations);

  KernelCost cost;
  // Counter-based Gaussian test-matrix evaluation on the local block
  // (Box-Muller per entry; ~50 flop-equivalents each).
  cost.flops += 50.0 * w * jhat / phat;
  // (1+q) sketch cross-Grams of the local block against the width-w tensor.
  cost.flops += passes * 2.0 * w * j / p;
  // (1+q) full-grid allreduces of the Jn x w sketch.
  cost.messages += passes * 2.0 * log2_ceil(static_cast<int>(p));
  cost.words += passes * 2.0 * (p - 1.0) / p * jn * w;
  // (1+q) redundant thin QRs of the replicated Jn x w sketch.
  cost.flops += passes * 2.0 * jn * w * w;
  // (1+q) width-w TTMs (q power-iteration projections + the final one).
  for (int t = 0; t < static_cast<int>(passes); ++t) {
    cost += ttm_cost(dims, width, mode, grid);
  }
  // q processor-column allgathers of the re-blocked projected tensor.
  cost.messages += static_cast<double>(power_iterations) * 2.0 * (pn - 1.0);
  cost.words += static_cast<double>(power_iterations) * 2.0 * (pn - 1.0) /
                pn * w * jhat / phat;
  // TSQR of the projected tensor (mode extent w instead of Jn).
  Dims projected = dims;
  projected[static_cast<std::size_t>(mode)] = width;
  cost += tsqr_cost(projected, mode, grid);
  // Redundant w x w SVD of R^T and the factor lift U = Q U_B.
  cost.flops += (10.0 / 3.0) * w * w * w + 2.0 * jn * w * w;
  return cost;
}

bool prefer_sketch(const Dims& dims, int mode, std::size_t width,
                   int power_iterations, const std::vector<int>& grid,
                   const Machine& machine) {
  const std::size_t jn = dims[static_cast<std::size_t>(mode)];
  // A sketch as wide as the mode itself has no flop advantage over the
  // exact routes and still pays the sketch error — never pick it.
  if (2 * width >= jn) return false;
  KernelCost gram_route = gram_cost(dims, mode, grid, /*symmetric=*/true);
  gram_route += evecs_cost(jn, mode, grid);
  const double exact = std::min(machine.seconds(gram_route),
                                machine.seconds(tsqr_cost(dims, mode, grid)));
  return machine.seconds(
             sketch_cost(dims, mode, width, power_iterations, grid)) < exact;
}

KernelCost sthosvd_cost(const Dims& dims, const Dims& ranks,
                        const std::vector<int>& grid,
                        const std::vector<int>& order) {
  PT_REQUIRE(dims.size() == ranks.size() && dims.size() == grid.size(),
             "sthosvd_cost: order mismatch");
  Dims work = dims;
  KernelCost total;
  for (int n : order) {
    const std::size_t un = static_cast<std::size_t>(n);
    // dist::gram runs the symmetric kernel, so the benches' modeled GFLOPS
    // match the counted flops of a run.
    total += gram_cost(work, n, grid, /*symmetric=*/true);
    total += evecs_cost(work[un], n, grid);
    total += ttm_cost(work, ranks[un], n, grid);
    work[un] = ranks[un];
  }
  return total;
}

double memory_bound_per_rank(const Dims& dims, const Dims& ranks,
                             const std::vector<int>& grid) {
  const double p = grid_size(grid);
  double bound = 2.0 * dprod(dims) / p;
  double max_in_sq = 0.0;
  double max_rn_in = 0.0;
  for (std::size_t n = 0; n < dims.size(); ++n) {
    const double in = static_cast<double>(dims[n]);
    const double rn = static_cast<double>(ranks[n]);
    const double pn = static_cast<double>(grid[n]);
    bound += rn * in / pn;
    max_in_sq = std::max(max_in_sq, in * in);
    max_rn_in = std::max(max_rn_in, rn * in);
  }
  return bound + max_in_sq + max_rn_in;
}

}  // namespace ptucker::costmodel
