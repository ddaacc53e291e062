#pragma once
/// \file lapack.hpp
/// \brief Dense eigen/QR/SVD solvers (the LAPACK substitute).
///
/// The Tucker algorithms need exactly one LAPACK capability: the
/// eigendecomposition of the small (In x In) symmetric Gram matrix, computed
/// redundantly on every rank (paper Alg. 5 uses dsyevx). We provide:
///  - eig_sym: Householder tridiagonalization + implicit-shift QL
///    (tred2/tql2 lineage), eigenpairs sorted descending,
///  - eig_sym_jacobi: cyclic Jacobi — slower but independently derived, used
///    as a cross-check oracle and in bench/ablate_eig_solvers,
///  - qr_thin: Householder QR with explicit thin Q,
///  - left_svd_via_qr: leading left singular vectors through QR and a small
///    SVD, the Sec. IX numerical-stability route (no condition-number
///    squaring, unlike the Gram route's eig_sym of Y Y^T).
///
/// All matrices are column-major with leading dimensions.

#include <cstddef>
#include <vector>

namespace ptucker::la {

/// Symmetric eigendecomposition result. values[i] is the i-th eigenvalue in
/// DESCENDING order; column i of vectors (n x n, column-major, ld = n) is
/// the corresponding unit eigenvector.
struct SymEig {
  std::size_t n = 0;
  std::vector<double> values;
  std::vector<double> vectors;

  [[nodiscard]] const double* vector(std::size_t i) const {
    return vectors.data() + i * n;
  }
};

/// Tridiagonalization + implicit QL. \p a is n x n symmetric (both triangles
/// stored), not modified. Throws on convergence failure (pathological input).
[[nodiscard]] SymEig eig_sym(const double* a, std::size_t n, std::size_t lda);

/// Cyclic Jacobi eigensolver (reference oracle; O(n^3) per sweep).
[[nodiscard]] SymEig eig_sym_jacobi(const double* a, std::size_t n,
                                    std::size_t lda);

/// Thin Householder QR of a (m x n, m >= n): a is not modified; on return
/// q is m x n with orthonormal columns (ldq) and r is n x n upper triangular
/// (ldr, lower part zeroed).
void qr_thin(const double* a, std::size_t m, std::size_t n, std::size_t lda,
             double* q, std::size_t ldq, double* r, std::size_t ldr);

/// R factor only (same reduction as qr_thin, Q never formed — about half
/// the flops). Used by the TSQR tree and the QR-route SVD, which both need
/// just R^T R = A^T A.
void qr_r_factor(const double* a, std::size_t m, std::size_t n,
                 std::size_t lda, double* r, std::size_t ldr);

/// Left singular subspace of a wide matrix.
struct LeftSvd {
  std::size_t rows = 0;
  std::vector<double> singular_values;  ///< descending
  std::vector<double> u;                ///< rows x rows column-major
  [[nodiscard]] const double* left_vector(std::size_t i) const {
    return u.data() + i * rows;
  }
};

/// One-sided Jacobi SVD of a (m x n, m >= n): returns U (m x n), sigma (n,
/// descending), V (n x n) with a = U diag(sigma) V^T.
struct JacobiSvd {
  std::size_t m = 0, n = 0;
  std::vector<double> u;      ///< m x n
  std::vector<double> sigma;  ///< n, descending
  std::vector<double> v;      ///< n x n
};
[[nodiscard]] JacobiSvd jacobi_svd(const double* a, std::size_t m,
                                   std::size_t n, std::size_t lda);

/// Left singular vectors of Y via QR of Y^T followed by a small Jacobi SVD
/// of R^T — avoids squaring the condition number (paper Sec. IX).
[[nodiscard]] LeftSvd left_svd_via_qr(const double* y, std::size_t rows,
                                      std::size_t cols, std::size_t ldy);

}  // namespace ptucker::la
