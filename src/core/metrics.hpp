#pragma once
/// \file metrics.hpp
/// \brief Error and compression metrics used throughout the evaluation
/// (paper Sec. VII): normalized RMS error, maximum absolute element error,
/// mode-wise error contributions, and compression ratios.

#include "core/tucker_tensor.hpp"

namespace ptucker::core {

/// ‖X − X̃‖ / ‖X‖ (collective). With the paper's per-species normalization
/// the data is approximately unit-variance, so this equals the normalized
/// RMS error the paper reports.
[[nodiscard]] double normalized_error(const DistTensor& x,
                                      const DistTensor& x_tilde);

/// max |X − X̃| over all elements (collective) — Tab. II's "Max. Abs. Elem.
/// Err." on centered/scaled data.
[[nodiscard]] double max_abs_error(const DistTensor& x,
                                   const DistTensor& x_tilde);

/// Mode-wise normalized RMS contribution for a given spectrum and rank:
/// sqrt(sum_{i >= r} lambda_i) / ‖X‖ (the Fig. 6 curves).
[[nodiscard]] double modewise_error(std::span<const double> eigenvalues_desc,
                                    std::size_t rank, double norm_x);

/// Compression ratio for dims/ranks without building a model (Fig. 7).
[[nodiscard]] double compression_ratio(const tensor::Dims& dims,
                                       const tensor::Dims& ranks);

}  // namespace ptucker::core
