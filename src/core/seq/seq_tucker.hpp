#pragma once
/// \file seq_tucker.hpp
/// \brief Sequential reference Tucker implementation.
///
/// A single-rank, communication-free ST-HOSVD / reconstruction stack
/// built directly on the local kernels. It serves three purposes:
///  1. cross-validation oracle for the distributed algorithms (the property
///     tests demand bit-for-bit-comparable errors across all grids),
///  2. the single-node baseline for the scaling benches, and
///  3. the Sec. IX ablation host for the randomized sketch factor
///     computation.

#include <string>

#include "lapack/lapack.hpp"
#include "tensor/local_kernels.hpp"

namespace ptucker::core::seq {

using tensor::Dims;
using tensor::Matrix;
using tensor::Tensor;

enum class FactorMethod {
  GramEig,    ///< Gram matrix + symmetric eigensolver (paper default)
  Randomized, ///< sketch Y(n)*Omega -> thin QR -> project -> small SVD,
              ///< mirroring the distributed route entry for entry (same
              ///< counter-based Omega per mode)
};

/// A mode whose sketch failed the eq. 3 posteriori check and was replaced
/// by the Gram route. Recorded, never silent.
struct SeqDowngrade {
  int mode = -1;
  FactorMethod requested = FactorMethod::GramEig;
  FactorMethod used = FactorMethod::GramEig;
  std::string reason;
};

struct SeqTucker {
  Tensor core;
  std::vector<Matrix> factors;

  [[nodiscard]] Dims core_dims() const { return core.dims(); }
  [[nodiscard]] double compression_ratio() const;
};

struct SeqOptions {
  double epsilon = 1e-3;
  std::vector<std::size_t> fixed_ranks;
  /// Mode processing order; empty means natural (see SthosvdOptions).
  std::vector<int> mode_order;
  /// The randomized method shares the distributed route's fixed settings
  /// (dist/sketch.hpp), so both sketch against the same Omega.
  FactorMethod method = FactorMethod::GramEig;
};

struct SeqResult {
  SeqTucker tucker;
  std::vector<std::vector<double>> mode_eigenvalues;  ///< by mode
  std::vector<int> mode_order_used;
  /// Method that actually produced each mode's factor, indexed by mode
  /// (differs from SeqOptions::method only via a recorded downgrade).
  std::vector<FactorMethod> mode_methods;
  std::vector<SeqDowngrade> downgrades;
  double norm_x = 0.0;
  double error_bound = 0.0;
};

[[nodiscard]] SeqResult seq_st_hosvd(const Tensor& x,
                                     const SeqOptions& options = {});

[[nodiscard]] Tensor seq_reconstruct(const SeqTucker& model);

/// ‖X − X̃‖ / ‖X‖ for two plain tensors.
[[nodiscard]] double seq_normalized_error(const Tensor& x,
                                          const Tensor& x_tilde);

}  // namespace ptucker::core::seq
