#pragma once
/// \file tucker_model.hpp
/// \brief Analytical cost model for the parallel Tucker kernels and drivers
/// (paper Sec. V-B/C/D and Sec. VI), used for the factor-route choice, model
/// validation tests, and the peak-fraction reporting of the scaling benches.

#include <vector>

#include "tensor/tensor.hpp"

namespace ptucker::costmodel {

using tensor::Dims;

/// Per-rank critical-path cost of one kernel invocation.
struct KernelCost {
  double flops = 0.0;
  double words = 0.0;     ///< beta multiplier
  double messages = 0.0;  ///< alpha multiplier

  KernelCost& operator+=(const KernelCost& other) {
    flops += other.flops;
    words += other.words;
    messages += other.messages;
    return *this;
  }
};

/// Machine parameters for converting costs into seconds.
struct Machine {
  double alpha = 1e-6;   ///< per-message latency (s)
  double beta = 1e-9;    ///< per-word transfer time (s/word)
  double gamma = 2.5e-10; ///< per-flop time (s); ~4 GFLOP/s/core scalar
  [[nodiscard]] double seconds(const KernelCost& cost) const {
    return alpha * cost.messages + beta * cost.words + gamma * cost.flops;
  }
};

/// Cost of Z = Y x_n M with Y of size dims, M of size K x dims[n]
/// (paper C_TTM: 2*J*K/P flops, alpha*Pn*logPn, beta*(Pn-1)*Jhat_n*K/P).
[[nodiscard]] KernelCost ttm_cost(const Dims& dims, std::size_t k, int mode,
                                  const std::vector<int>& grid);

/// Cost of S = Y(n) Y(n)^T (paper C_GRAM). With symmetric = true the local
/// diagonal-block kernel is the packed symmetry-exploiting syrk — n(n+1)k
/// instead of 2n^2k flops with n = Jn/Pn, identical communication.
/// dist::gram always runs the symmetric kernel, so sthosvd_cost and the
/// route predicates pass true; bench/ablate_gram_symmetry has the
/// measurements.
[[nodiscard]] KernelCost gram_cost(const Dims& dims, int mode,
                                   const std::vector<int>& grid,
                                   bool symmetric = false);

/// Cost of the leading-eigenvector computation (paper C_EIG; note the
/// paper's beta term prints In where the all-gathered matrix actually has
/// In^2 entries — we model In^2).
[[nodiscard]] KernelCost evecs_cost(std::size_t in, int mode,
                                    const std::vector<int>& grid);

/// Cost of the Gram-free TSQR factor route for mode n (paper Sec. IX,
/// generalized to any grid): the processor-column row exchange, the local
/// Householder QR of the (Jhat_n/P) x Jn slab, the binomial R-combine tree
/// and broadcast over all P ranks, and the redundant small SVD of R^T.
/// Covers the same work as gram_cost + evecs_cost do for the Gram route.
[[nodiscard]] KernelCost tsqr_cost(const Dims& dims, int mode,
                                   const std::vector<int>& grid);

/// FactorMethod::Auto predicate: true when the modeled TSQR route beats
/// Gram + eigensolver for mode n under the machine parameters. Tall-skinny
/// unfoldings (Jn << Jhat_n) with Pn > 1 favor TSQR — it moves 1/Pn of the
/// local block once instead of ring-shifting all of it Pn-1 times — while
/// fat unfoldings pay O(log P) extra Jn^3 tree factorizations and stay on
/// the Gram route.
[[nodiscard]] bool prefer_tsqr(const Dims& dims, int mode,
                               const std::vector<int>& grid,
                               const Machine& machine = {});

/// Cost of the randomized sketch factor route for mode n with sketch width
/// w and q power iterations: test-matrix generation, (1+q) sketch
/// cross-Grams + allreduces + redundant thin QRs, (1+q) width-w TTMs, q
/// processor-column allgathers, the TSQR of the projected (w-row) tensor,
/// and the redundant w x w SVD + factor lift. The leading term is
/// 2(1+2q) w J/P flops — linear in w where the exact routes are linear in
/// Jn — so it wins exactly when w << Jn.
[[nodiscard]] KernelCost sketch_cost(const Dims& dims, int mode,
                                     std::size_t width, int power_iterations,
                                     const std::vector<int>& grid);

/// FactorMethod::Auto predicate for the randomized route: true when the
/// modeled sketch beats the better of the two exact routes for mode n.
/// Always false when the sketch width is not materially narrower than Jn
/// (no flop advantage, only sketch error).
[[nodiscard]] bool prefer_sketch(const Dims& dims, int mode, std::size_t width,
                                 int power_iterations,
                                 const std::vector<int>& grid,
                                 const Machine& machine = {});

/// Total ST-HOSVD cost: sums the three kernels over modes in the given
/// processing order with the working dims shrinking as the paper's Sec. VI-A
/// analysis does.
[[nodiscard]] KernelCost sthosvd_cost(const Dims& dims, const Dims& ranks,
                                      const std::vector<int>& grid,
                                      const std::vector<int>& order);

/// Paper eq. (2): per-rank memory upper bound (in doubles) for ST-HOSVD /
/// HOOI.
[[nodiscard]] double memory_bound_per_rank(const Dims& dims, const Dims& ranks,
                                           const std::vector<int>& grid);

}  // namespace ptucker::costmodel
