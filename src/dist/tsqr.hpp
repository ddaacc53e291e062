#pragma once
/// \file tsqr.hpp
/// \brief Communication-avoiding TSQR factorization of the mode-n unfolding
/// (paper Sec. IX): the Gram-free route to the factor matrix.
///
/// Works on any processor grid. The transposed unfolding A = Y(n)^T is a
/// tall matrix whose rows (the unfolding's columns) are spread over the
/// grid. When Pn > 1 each rank first exchanges sub-blocks within the mode-n
/// processor column so that every rank holds a full-width (all Jn columns)
/// slab of a disjoint set of rows; with Pn == 1 that exchange is a no-op.
/// Each rank then computes a local Householder QR of its slab, the Jn x Jn
/// R factors are combined up a binomial tree over the whole grid, and the
/// final R (with R^T R = Y(n) Y(n)^T) is broadcast. Because R is produced
/// without ever squaring Y, singular values as small as machine-eps times
/// the largest remain resolvable — the deep spectral tail the Gram route
/// flattens.

#include "dist/eigenvectors.hpp"

namespace ptucker::dist {

/// Collective: the Jn x Jn R factor of the transposed mode-n unfolding,
/// replicated on every rank. Valid for any grid (any Pn).
[[nodiscard]] tensor::Matrix tsqr_r_factor(const DistTensor& x, int mode);

/// Collective: factor matrix via TSQR + small SVD of R^T. Returns the same
/// FactorResult shape as eigenvectors(): eigenvalues are squared singular
/// values (full length Jn, descending), U is Jn x rank, sign-canonicalized.
[[nodiscard]] FactorResult factor_via_tsqr(const DistTensor& x, int mode,
                                           const RankSelection& select);

}  // namespace ptucker::dist
