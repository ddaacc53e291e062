#pragma once
/// \file hooi.hpp
/// \brief Higher-order orthogonal iteration (paper Alg. 2).
///
/// Alternating optimization initialized by ST-HOSVD: for each mode n,
/// multiply X by every other factor transpose (multi-TTM) and take the
/// leading Rn left singular vectors of the result as the new factor, through
/// st_hosvd's per-mode step on the route the initialization's factor_method
/// picks (Gram + eig by default). The model fit ‖X − G x {U}‖² equals
/// ‖X‖² − ‖G‖² (paper line 10), which decreases monotonically; iteration
/// stops on small improvement or at the sweep limit.

#include "core/st_hosvd.hpp"

namespace ptucker::core {

struct HooiOptions {
  int max_sweeps = 10;
  /// Stop when the decrease of (‖X‖² − ‖G‖²) / ‖X‖² falls below this.
  double improvement_tol = 1e-6;
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
/// the initialization (via \p init_options) and stay fixed during HOOI;
/// the sweeps factor with init_options.factor_method.
[[nodiscard]] HooiResult hooi(const DistTensor& x,
                              const SthosvdOptions& init_options = {},
                              const HooiOptions& options = {});

}  // namespace ptucker::core
