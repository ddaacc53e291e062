#pragma once
/// \file st_hosvd.hpp
/// \brief Sequentially-truncated HOSVD (paper Alg. 1) — the workhorse of the
/// compression pipeline and the initializer for HOOI.
///
/// For each mode (in a configurable order): compute the leading left
/// singular vectors of the working tensor's unfolding as the factor —
/// either via the Gram matrix + symmetric eigensolver, via the Gram-free
/// row-distributed TSQR (Sec. IX, any grid), or letting the cost model pick
/// per mode (FactorMethod::Auto) — pick the rank from the
/// eps^2 ||X||^2 / N tail criterion (or use a fixed rank), and truncate the
/// working tensor with a TTM by the transposed factor. After all modes, the
/// working tensor is the core. Satisfies ‖X − X̃‖ <= eps ‖X‖ (paper eq. 3).
/// The per-mode factor step (detail::factor_mode) is shared with HOOI; the
/// randomized route's settings are constants in dist/sketch.hpp, so the
/// options are the eps target or fixed ranks, the mode order and the route.
///
/// X is read in place, never copied: the first processed mode factors and
/// truncates X itself, and each later mode reads the previous TTM output,
/// freed as soon as the next one exists. So the resident set is X plus one
/// TTM output (and, while a TTM runs, its smaller output), the factors and
/// one Gram matrix: with truncating ranks, the per-rank bound of the
/// paper's eq. 2 (costmodel::memory_bound_per_rank).

#include <string>

#include "core/tucker_tensor.hpp"
#include "dist/eigenvectors.hpp"
#include "dist/gram.hpp"
#include "dist/tsqr.hpp"
#include "dist/ttm.hpp"

namespace ptucker::core {

/// How each factor matrix is computed.
enum class FactorMethod {
  GramEig,     ///< Gram matrix + symmetric eigensolver (paper default)
  TsqrSvd,     ///< Gram-free TSQR + small SVD (Sec. IX); row-distributed, so
               ///< it runs on any grid (any Pn)
  Randomized,  ///< randomized sketch: Y(n)*Omega + TSQR of the projected
               ///< tensor — O(Jn w Jhat/P) instead of O(Jn^2 Jhat/P), with
               ///< an eps-aware fallback to the Gram route when the sketch
               ///< cannot certify the eq. 3 budget
  Auto,        ///< per-mode choice from costmodel/tucker_model: huge
               ///< unfoldings with loose eps go through the sketch,
               ///< tall-skinny ones through TSQR, fat ones through Gram
};

/// The route actually used for a mode (after Auto resolution and any
/// eps-tail fallback).
enum class FactorRoute { Gram, Tsqr, Randomized };

/// A mode whose requested route could not run (or could not certify the
/// eq. 3 budget) and was replaced by an exact one — recorded instead of
/// silently downgrading, so benches and tests can assert which route ran.
struct RouteDowngrade {
  int mode = -1;
  FactorRoute requested = FactorRoute::Gram;
  FactorRoute used = FactorRoute::Gram;
  std::string reason;
};

/// Resolve the route for one mode of the working tensor: the explicit
/// methods map one-to-one; Auto asks the cost model, considering the sketch
/// only when selection is fixed-rank or eps is loose enough to leave the
/// posteriori check headroom (dist::kSketchAutoMinEpsilon). \p fixed_rank
/// is this mode's fixed target rank, or 0 for eps-driven selection.
[[nodiscard]] FactorRoute resolve_factor_route(FactorMethod method,
                                               const DistTensor& y, int mode,
                                               double epsilon,
                                               std::size_t fixed_rank);

namespace detail {

/// One mode's factor from the per-mode step both st_hosvd and hooi run.
struct ModeFactor {
  dist::FactorResult factor;
  /// Route that produced the factor: the requested one, or Gram after the
  /// sketch's eq. 3 fallback.
  FactorRoute route = FactorRoute::Gram;
  /// Energy outside the sketch subspace (randomized route only), part of
  /// what the truncation discards and so of the eq. 3 tail.
  double residual_energy = 0.0;
};

/// Collective: the factor of mode \p n of \p y by \p route under
/// \p select. An uncertified sketch falls back to the Gram route. Emits
/// the per-kernel spans ("Sketch", "TSQR", "Gram", "Evecs") with the mode
/// as their argument.
[[nodiscard]] ModeFactor factor_mode(const DistTensor& y, int n,
                                     FactorRoute route,
                                     const dist::RankSelection& select);

}  // namespace detail

struct SthosvdOptions {
  /// Relative error target eps; used when fixed_ranks is empty.
  double epsilon = 1e-3;
  /// Fixed target ranks (one per mode); overrides epsilon when non-empty.
  std::vector<std::size_t> fixed_ranks;

  /// Mode processing order: a permutation of 0..N-1, or empty for the
  /// natural order (Alg. 1 as written). Sec. VIII-C: the order does not
  /// change the error guarantee, only the cost.
  std::vector<int> mode_order;

  /// Route for every factor, HOOI's sweeps included.
  FactorMethod factor_method = FactorMethod::GramEig;
};

struct SthosvdResult {
  TuckerTensor tucker;
  /// Eigen-spectrum of the Gram matrix seen when each mode was processed,
  /// indexed by mode (not by processing position). For the first processed
  /// mode this is the spectrum of X(n) X(n)^T itself (Fig. 6 data). For a
  /// mode factored by the randomized route this is the sketch spectrum
  /// lambda_i(Q^T Y(n)) — length = sketch width, not Jn.
  std::vector<std::vector<double>> mode_eigenvalues;
  std::vector<int> mode_order_used;
  /// Route that actually produced each mode's factor, indexed by mode.
  std::vector<FactorRoute> mode_routes;
  /// Modes whose requested route was replaced (currently: the randomized
  /// route's eps-tail fallback to Gram). Empty means every mode ran the
  /// route the resolver picked.
  std::vector<RouteDowngrade> downgrades;
  double norm_x = 0.0;       ///< ‖X‖
  double norm_x_sq = 0.0;    ///< ‖X‖²
  /// Upper bound on ‖X − X̃‖ / ‖X‖ from the truncated eigenvalue tails
  /// (paper eq. 3).
  double error_bound = 0.0;
};

[[nodiscard]] SthosvdResult st_hosvd(const DistTensor& x,
                                     const SthosvdOptions& options = {});

}  // namespace ptucker::core
