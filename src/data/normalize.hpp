#pragma once
/// \file normalize.hpp
/// \brief Per-species centering and scaling (paper Sec. VII-A).
///
/// "Each data set is centered and scaled for each variable/species: we
/// compute the mean and standard deviation for each species slice, subtract
/// the mean and divide by the standard deviation (unless it is less than
/// 1e-10, in which case the division is not performed)."

#include "dist/dist_tensor.hpp"

namespace ptucker::data {

struct NormalizationStats {
  int species_mode = 0;
  std::vector<double> mean;   ///< one per global species index
  std::vector<double> stdev;  ///< one per global species index (pre-floor)
};

/// Minimum standard deviation below which scaling is skipped (paper value).
inline constexpr double kStdFloor = 1e-10;

/// Distributed in-place normalization; returns the full per-species stats
/// (replicated on every rank).
NormalizationStats normalize_species(dist::DistTensor& x, int species_mode);

/// Inverse transform (for reconstructing physical values).
void denormalize_species(dist::DistTensor& x, const NormalizationStats& stats);

/// Inverse transform for a tensor whose species mode covers only the global
/// species indices [species_lo, species_lo + extent) of \p stats — a sliced
/// partial reconstruction (the streaming query path).
void denormalize_species_range(dist::DistTensor& x,
                               const NormalizationStats& stats,
                               std::size_t species_lo);

/// Sequential variant for tests and small runs.
NormalizationStats normalize_species_seq(tensor::Tensor& x, int species_mode);

/// Sequential inverse transform for a tensor whose species mode covers only
/// the global species indices [species_lo, species_lo + extent) of \p stats
/// — the serve layer's per-query denormalization. Applies the exact formula
/// of denormalize_species_range, so a local evaluation bit-matches the
/// distributed one.
void denormalize_species_range_seq(tensor::Tensor& x,
                                   const NormalizationStats& stats,
                                   std::size_t species_lo);

}  // namespace ptucker::data
