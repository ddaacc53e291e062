#include <gtest/gtest.h>

#include <cmath>

#include "blas/blas.hpp"
#include "lapack/lapack.hpp"
#include "tensor/matrix.hpp"
#include "test_utils.hpp"
#include "util/rng.hpp"

namespace ptucker {
namespace {

using tensor::Matrix;

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  const Matrix g = Matrix::randn(n, n, seed);
  Matrix s(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      s(i, j) = 0.5 * (g(i, j) + g(j, i));
    }
  }
  return s;
}

/// Symmetric matrix with a prescribed spectrum: V diag(vals) V^T.
Matrix with_spectrum(const std::vector<double>& vals, std::uint64_t seed) {
  const std::size_t n = vals.size();
  const Matrix v = Matrix::random_orthonormal(n, n, seed);
  Matrix scaled = v;
  for (std::size_t j = 0; j < n; ++j) {
    blas::scal(n, vals[j], scaled.col(j));
  }
  return Matrix::multiply(scaled, false, v, true);
}

void expect_eig_valid(const la::SymEig& eig, const Matrix& a, double tol) {
  const std::size_t n = eig.n;
  // Descending order.
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_GE(eig.values[i - 1], eig.values[i] - 1e-12);
  }
  // A v = lambda v for each pair.
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> av(n, 0.0);
    blas::gemm(blas::Trans::No, blas::Trans::No, n, 1, n, 1.0, a.data(), n,
               eig.vector(j), n, 0.0, av.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(av[i], eig.values[j] * eig.vector(j)[i], tol)
          << "pair " << j << " row " << i;
    }
  }
  // Orthonormal eigenvectors.
  Matrix v(n, n);
  blas::copy(n * n, eig.vectors.data(), v.data());
  EXPECT_LT(testing::orthonormality_defect(v), tol);
}

class EigSizes : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Sizes, EigSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 20, 64, 150),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST_P(EigSizes, RandomSymmetricEigenpairsValid) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  const Matrix a = random_symmetric(n, 42 + n);
  const la::SymEig eig = la::eig_sym(a.data(), n, n);
  expect_eig_valid(eig, a, 1e-9 * static_cast<double>(n));
}

TEST_P(EigSizes, JacobiAgreesWithQL) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  const Matrix a = random_symmetric(n, 17 + n);
  const la::SymEig ql = la::eig_sym(a.data(), n, n);
  const la::SymEig jac = la::eig_sym_jacobi(a.data(), n, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ql.values[i], jac.values[i], 1e-9 * static_cast<double>(n));
  }

  // With unit gaps between eigenvalues every eigenvector is determined up to
  // sign, so the two independently derived solvers must agree on the
  // factors too (the Gram route's U), not only on the spectrum.
  std::vector<double> vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    vals[i] = static_cast<double>(n - i) - 0.5 * static_cast<double>(n);
  }
  const Matrix s = with_spectrum(vals, 31 + n);
  const la::SymEig ql_s = la::eig_sym(s.data(), n, n);
  const la::SymEig jac_s = la::eig_sym_jacobi(s.data(), n, n);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(ql_s.values[j], jac_s.values[j], 1e-9 * static_cast<double>(n));
    const double dot = blas::dot(n, ql_s.vector(j), jac_s.vector(j));
    const double sign = dot < 0.0 ? -1.0 : 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(ql_s.vector(j)[i], sign * jac_s.vector(j)[i], 1e-9)
          << "vector " << j << " row " << i;
    }
  }
}

TEST(Eig, DiagonalMatrix) {
  const std::size_t n = 5;
  Matrix a(n, n);
  const std::vector<double> diag = {5.0, -2.0, 3.0, 0.0, 1.0};
  for (std::size_t i = 0; i < n; ++i) a(i, i) = diag[i];
  const la::SymEig eig = la::eig_sym(a.data(), n, n);
  const std::vector<double> expected = {5.0, 3.0, 1.0, 0.0, -2.0};
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(eig.values[i], expected[i], 1e-12);
  }
}

TEST(Eig, PrescribedSpectrumRecovered) {
  const std::vector<double> vals = {100.0, 10.0, 1.0, 0.1, 0.01, 0.0};
  const Matrix a = with_spectrum(vals, 7);
  const la::SymEig eig = la::eig_sym(a.data(), vals.size(), vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    EXPECT_NEAR(eig.values[i], vals[i], 1e-9);
  }
}

TEST(Eig, RepeatedEigenvaluesStillOrthonormal) {
  const std::vector<double> vals = {2.0, 2.0, 2.0, 1.0, 1.0};
  const Matrix a = with_spectrum(vals, 11);
  const la::SymEig eig = la::eig_sym(a.data(), 5, 5);
  expect_eig_valid(eig, a, 1e-9);
}

TEST(Eig, RespectsLeadingDimension) {
  const std::size_t n = 4;
  const std::size_t lda = 7;
  const Matrix small = random_symmetric(n, 3);
  std::vector<double> padded(lda * n, -99.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      padded[i + j * lda] = small(i, j);
    }
  }
  const la::SymEig a = la::eig_sym(padded.data(), n, lda);
  const la::SymEig b = la::eig_sym(small.data(), n, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(a.values[i], b.values[i], 1e-12);
  }
}

TEST(Eig, WilkinsonStyleGradedMatrix) {
  // Graded diagonal plus weak coupling: classic accuracy stress for
  // tridiagonal QL implementations.
  const std::size_t n = 21;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = std::fabs(static_cast<double>(i) - 10.0);
    if (i + 1 < n) {
      a(i, i + 1) = 1.0;
      a(i + 1, i) = 1.0;
    }
  }
  const la::SymEig eig = la::eig_sym(a.data(), n, n);
  expect_eig_valid(eig, a, 1e-9);
  // Wilkinson's W21: the two largest eigenvalues are famously close
  // (~10.746); they must be resolved as distinct but nearly equal.
  EXPECT_NEAR(eig.values[0], eig.values[1], 1e-3);
  EXPECT_GT(eig.values[0] - eig.values[1], 0.0);
  EXPECT_NEAR(eig.values[0], 10.746, 1e-2);
}

TEST(Eig, TinyAndHugeScalesHandled) {
  // Scaling the matrix scales the spectrum exactly; the solver must not
  // lose accuracy to over/underflow at extreme magnitudes.
  const std::size_t n = 12;
  const Matrix base = random_symmetric(n, 31);
  const la::SymEig ref = la::eig_sym(base.data(), n, n);
  for (double scale : {1e-150, 1e150}) {
    Matrix scaled = base;
    blas::scal(n * n, scale, scaled.data());
    const la::SymEig eig = la::eig_sym(scaled.data(), n, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(eig.values[i] / scale, ref.values[i],
                  1e-10 * std::fabs(ref.values[0]));
    }
  }
}

TEST(Eig, ZeroMatrixIsHarmless) {
  const std::size_t n = 7;
  Matrix a(n, n);
  const la::SymEig eig = la::eig_sym(a.data(), n, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(eig.values[i], 0.0);
  }
  Matrix v(n, n);
  blas::copy(n * n, eig.vectors.data(), v.data());
  EXPECT_LT(testing::orthonormality_defect(v), 1e-12);
}

TEST(Qr, ThinQrReconstructsInput) {
  const std::size_t m = 23;
  const std::size_t n = 7;
  const Matrix a = Matrix::randn(m, n, 5);
  Matrix q(m, n);
  Matrix r(n, n);
  la::qr_thin(a.data(), m, n, m, q.data(), m, r.data(), n);
  EXPECT_LT(testing::orthonormality_defect(q), 1e-12);
  const Matrix qr = Matrix::multiply(q, false, r, false);
  EXPECT_LT(testing::max_diff(qr, a), 1e-11);
  // R strictly upper triangular below the diagonal.
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j + 1; i < n; ++i) {
      EXPECT_EQ(r(i, j), 0.0);
    }
  }
}

TEST(Qr, SquareMatrix) {
  const std::size_t n = 12;
  const Matrix a = Matrix::randn(n, n, 8);
  Matrix q(n, n);
  Matrix r(n, n);
  la::qr_thin(a.data(), n, n, n, q.data(), n, r.data(), n);
  const Matrix qr = Matrix::multiply(q, false, r, false);
  EXPECT_LT(testing::max_diff(qr, a), 1e-11);
}

TEST(Qr, RankDeficientColumnHandled) {
  const std::size_t m = 10;
  const std::size_t n = 3;
  Matrix a = Matrix::randn(m, n, 9);
  for (std::size_t i = 0; i < m; ++i) a(i, 1) = 0.0;  // zero column
  Matrix q(m, n);
  Matrix r(n, n);
  la::qr_thin(a.data(), m, n, m, q.data(), m, r.data(), n);
  const Matrix qr = Matrix::multiply(q, false, r, false);
  EXPECT_LT(testing::max_diff(qr, a), 1e-11);
}

TEST(JacobiSvd, ReconstructsAndOrders) {
  const std::size_t m = 15;
  const std::size_t n = 6;
  const Matrix a = Matrix::randn(m, n, 13);
  const la::JacobiSvd svd = la::jacobi_svd(a.data(), m, n, m);
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_GE(svd.sigma[i - 1], svd.sigma[i]);
  }
  // A = U diag(sigma) V^T.
  Matrix us(m, n);
  blas::copy(m * n, svd.u.data(), us.data());
  for (std::size_t j = 0; j < n; ++j) blas::scal(m, svd.sigma[j], us.col(j));
  Matrix v(n, n);
  blas::copy(n * n, svd.v.data(), v.data());
  const Matrix rec = Matrix::multiply(us, false, v, true);
  EXPECT_LT(testing::max_diff(rec, a), 1e-10);
}

TEST(LeftSvd, QrRouteMoreAccurateOnIllConditionedData) {
  // Construct a wide matrix with tiny trailing singular value; the Gram
  // route squares the condition number, the QR route does not (Sec. IX).
  const std::size_t rows = 4;
  const std::size_t cols = 64;
  const Matrix u = Matrix::random_orthonormal(rows, rows, 3);
  const Matrix v = Matrix::random_orthonormal(cols, rows, 4);
  const std::vector<double> sigma = {1.0, 1e-4, 1e-7, 1e-9};
  Matrix us(rows, rows);
  blas::copy(rows * rows, u.data(), us.data());
  for (std::size_t j = 0; j < rows; ++j) blas::scal(rows, sigma[j], us.col(j));
  const Matrix y = Matrix::multiply(us, false, v, true);

  const la::LeftSvd qr = la::left_svd_via_qr(y.data(), rows, cols, rows);
  // sigma_2 = 1e-7: sigma^2 = 1e-14 is at the edge of double precision for
  // the Gram route but easily resolved by the QR route.
  EXPECT_NEAR(qr.singular_values[2] / 1e-7, 1.0, 1e-3);
}

}  // namespace
}  // namespace ptucker
