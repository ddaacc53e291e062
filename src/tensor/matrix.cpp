#include "tensor/matrix.hpp"

#include "blas/blas.hpp"
#include "lapack/lapack.hpp"
#include "util/rng.hpp"

namespace ptucker::tensor {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::randn(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  util::Rng rng(seed);
  for (double& v : m.data_) v = rng.normal();
  return m;
}

Matrix Matrix::random_orthonormal(std::size_t rows, std::size_t cols,
                                  std::uint64_t seed) {
  PT_REQUIRE(rows >= cols, "random_orthonormal requires rows >= cols");
  const Matrix g = randn(rows, cols, seed);
  Matrix q(rows, cols);
  Matrix r(cols, cols);
  la::qr_thin(g.data(), rows, cols, rows, q.data(), rows, r.data(), cols);
  // Fix signs so the factor is deterministic across QR implementations:
  // make each R diagonal entry non-negative.
  for (std::size_t j = 0; j < cols; ++j) {
    if (r(j, j) < 0.0) {
      blas::scal(rows, -1.0, q.col(j));
    }
  }
  return q;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t j = 0; j < cols_; ++j) {
    for (std::size_t i = 0; i < rows_; ++i) {
      t(j, i) = (*this)(i, j);
    }
  }
  return t;
}

Matrix Matrix::row_block(util::Range range) const {
  PT_REQUIRE(range.hi <= rows_ && range.lo <= range.hi,
             "row_block: bad range");
  Matrix b(range.size(), cols_);
  for (std::size_t j = 0; j < cols_; ++j) {
    blas::copy(range.size(), col(j) + range.lo, b.col(j));
  }
  return b;
}

Matrix Matrix::col_block(util::Range range) const {
  PT_REQUIRE(range.hi <= cols_ && range.lo <= range.hi,
             "col_block: bad range");
  Matrix b(rows_, range.size());
  for (std::size_t j = 0; j < range.size(); ++j) {
    blas::copy(rows_, col(range.lo + j), b.col(j));
  }
  return b;
}

Matrix Matrix::row_subset(std::span<const std::size_t> rows) const {
  Matrix b(rows.size(), cols_);
  for (std::size_t j = 0; j < cols_; ++j) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      PT_REQUIRE(rows[i] < rows_, "row_subset: index out of range");
      b(i, j) = (*this)(rows[i], j);
    }
  }
  return b;
}

Matrix Matrix::multiply(const Matrix& a, bool transpose_a, const Matrix& b,
                        bool transpose_b) {
  const std::size_t m = transpose_a ? a.cols() : a.rows();
  const std::size_t ka = transpose_a ? a.rows() : a.cols();
  const std::size_t kb = transpose_b ? b.cols() : b.rows();
  const std::size_t n = transpose_b ? b.rows() : b.cols();
  PT_REQUIRE(ka == kb, "multiply: inner dimension mismatch");
  Matrix c(m, n);
  blas::gemm(transpose_a ? blas::Trans::Yes : blas::Trans::No,
             transpose_b ? blas::Trans::Yes : blas::Trans::No, m, n, ka, 1.0,
             a.data(), a.rows(), b.data(), b.rows(), 0.0, c.data(), m);
  return c;
}

}  // namespace ptucker::tensor
