#pragma once
/// \file sketch.hpp
/// \brief Randomized sketched factor route (`FactorMethod::Randomized`).
///
/// Instead of paying for the full unfolding — the O(Jn · J/P) Gram or the
/// full-width TSQR — this route recovers the leading left singular subspace
/// of Y(n) from a width-w sketch, w = rank + oversample << Jn. The seed,
/// oversampling, power-iteration count, eps-driven width target and Auto's
/// eps gate are fixed constants (below), not options:
///
///   1. Sketch: S = Y(n) · Omega with a counter-based Gaussian test matrix
///      Omega (Jhat_n x w). Each rank evaluates the Omega rows of its own
///      unfolding columns on the fly (util::SketchRng, indexed by the
///      *global* column, so the sketch subspace is identical on any grid),
///      multiplies through the batched cross-Gram kernel, and one allreduce
///      of the Jn x w partial replicates S. Cost O(Jn · w · J/(Jn·P)).
///   2. Orthonormalize: Q = thin-QR(S), redundant on every rank (S is
///      small and replicated — no communication).
///   3. Power iterations (q = kSketchPowerIterations passes): Z = Y ×n Qᵀ
///      (a TTM), then S = Y(n) Z(n)ᵀ (cross-Gram against the
///      column-allgathered Z) and re-orthonormalize — sharpens the subspace
///      when the spectrum decays slowly, at one TTM + one sketch-width
///      cross-Gram per pass.
///   4. Project + small spectrum: Z = Y ×n Qᵀ, then the existing general
///      TSQR tree runs on the *projected* tensor (w-row unfolding — cheap),
///      and the redundant SVD of Rᵀ yields the spectrum of B = Qᵀ Y(n) and
///      its left vectors U_B. The factor is U = Q · U_B.
///
/// Error accounting is exact, not heuristic: truncating Y to the subspace
/// spanned by the leading r columns of U adds exactly
/// ‖Y‖² − Σ_{i<r} λ_i(B) to the squared error, i.e. the in-sketch tail
/// plus the out-of-sketch residual ‖Y‖² − ‖Z‖². Rank selection charges
/// both, so an eq. 3 eps budget certified here is a true bound; when even
/// the residual alone exceeds the per-mode budget the result is returned
/// uncertified and the driver falls back to the Gram route (recorded in
/// SthosvdResult::downgrades).

#include "dist/eigenvectors.hpp"
#include "dist/ttm.hpp"

namespace ptucker::dist {

/// The randomized route's fixed settings, shared by the sequential oracle
/// so that both sketch against the same Omega.
///
/// Seed of the counter-based test matrix: results are deterministic per
/// mode and bit-identical for any gemm_threads setting.
inline constexpr std::uint64_t kSketchSeed = 0x5eed;
/// Oversampling p: sketch width = target rank + p (clamped to Jn).
inline constexpr std::size_t kSketchOversample = 8;
/// Power-iteration passes q (each one TTM + one sketch cross-Gram).
inline constexpr int kSketchPowerIterations = 1;
/// FactorMethod::Auto considers the sketch only when the eps target is at
/// least this loose (tight targets would always trip the eps-tail
/// fallback and pay for both routes). Fixed-rank runs ignore it.
inline constexpr double kSketchAutoMinEpsilon = 1e-6;

/// Sketch width for a mode of extent jn: target + oversample, clamped to
/// jn. \p fixed_rank is the fixed target rank, or 0 for eps-driven
/// selection (then the target is Jn/4).
[[nodiscard]] std::size_t sketch_width(std::size_t jn, std::size_t fixed_rank);

struct SketchFactorResult {
  /// eigenvalues are the sketch spectrum λ_i(B) (length = width, not Jn).
  FactorResult factor;
  /// ‖Y‖² − Σ λ_i(B): the energy outside the sketch subspace. Drivers must
  /// charge it to the eq. 3 tail on top of the truncated in-sketch
  /// eigenvalues.
  double residual_energy = 0.0;
  /// False when eps-driven selection could not certify the per-mode budget
  /// (residual_energy alone exceeds it) — the caller must fall back to an
  /// exact route. Always true under fixed-rank selection.
  bool certified = true;
};

/// Collective: factor matrix via the randomized sketch. Every rank returns
/// bitwise-identical results; the subspace is reproducible per mode on any
/// grid.
[[nodiscard]] SketchFactorResult factor_via_sketch(const DistTensor& y,
                                                   int mode,
                                                   const RankSelection& select);

}  // namespace ptucker::dist
