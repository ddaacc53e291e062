#pragma once
/// \file hooi.hpp
/// \brief Higher-order orthogonal iteration (paper Alg. 2).
///
/// Alternating optimization initialized by ST-HOSVD: for each mode n,
/// multiply X by every other factor transpose (multi-TTM), recompute the
/// Gram matrix and take its leading Rn eigenvectors as the new factor. The
/// model fit ‖X − G x {U}‖² equals ‖X‖² − ‖G‖² (paper line 10), which
/// decreases monotonically; iteration stops on small improvement, reaching
/// the error target, or the sweep limit.

#include "core/st_hosvd.hpp"

namespace ptucker::core {

struct HooiOptions {
  int max_sweeps = 10;
  /// Stop when the decrease of (‖X‖² − ‖G‖²) / ‖X‖² falls below this.
  double improvement_tol = 1e-6;
  /// Stop early when relative error reaches this target (0 = disabled).
  double target_error = 0.0;

  /// Route for the per-mode factor update: Gram + eig (paper default),
  /// Gram-free TSQR, the randomized sketch, or the per-mode cost-model
  /// choice. Works on any grid.
  FactorMethod factor_method = FactorMethod::GramEig;
  /// Knobs for FactorMethod::Randomized. HOOI sweeps use fixed-rank
  /// selection, so the sketch never needs the eps-tail fallback here.
  dist::SketchOptions sketch;
};

struct HooiResult {
  TuckerTensor tucker;
  /// Relative error sqrt(‖X‖² − ‖G‖²)/‖X‖ after init and after each sweep.
  std::vector<double> error_history;
  int sweeps = 0;
  double norm_x = 0.0;
  SthosvdResult init;  ///< the ST-HOSVD initialization (spectra, bound, ...)
};

/// Run ST-HOSVD initialization followed by HOOI sweeps. Ranks are chosen by
/// the initialization (via \p init_options) and stay fixed during HOOI.
[[nodiscard]] HooiResult hooi(const DistTensor& x,
                              const SthosvdOptions& init_options = {},
                              const HooiOptions& options = {});

}  // namespace ptucker::core
