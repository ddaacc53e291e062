#pragma once
/// \file matrix.hpp
/// \brief Dense column-major matrix (factor matrices, Gram matrices).

#include <cstdint>
#include <span>
#include <vector>

#include "util/blocks.hpp"
#include "util/error.hpp"

namespace ptucker::tensor {

/// Column-major dense matrix with leading dimension == rows.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  [[nodiscard]] static Matrix identity(std::size_t n);
  [[nodiscard]] static Matrix randn(std::size_t rows, std::size_t cols,
                                    std::uint64_t seed);
  /// Orthonormal columns: thin Q of a random Gaussian matrix (rows >= cols).
  [[nodiscard]] static Matrix random_orthonormal(std::size_t rows,
                                                 std::size_t cols,
                                                 std::uint64_t seed);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }
  [[nodiscard]] double* col(std::size_t j) { return data_.data() + j * rows_; }
  [[nodiscard]] const double* col(std::size_t j) const {
    return data_.data() + j * rows_;
  }

  [[nodiscard]] double& operator()(std::size_t i, std::size_t j) {
    return data_[i + j * rows_];
  }
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const {
    return data_[i + j * rows_];
  }

  [[nodiscard]] std::span<double> span() { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const double> span() const {
    return {data_.data(), data_.size()};
  }

  /// Explicit transpose copy.
  [[nodiscard]] Matrix transposed() const;

  /// Copy of rows [range.lo, range.hi).
  [[nodiscard]] Matrix row_block(util::Range range) const;

  /// Copy of columns [range.lo, range.hi).
  [[nodiscard]] Matrix col_block(util::Range range) const;

  /// Copy of an arbitrary row subset (partial reconstruction, Sec. II-C).
  [[nodiscard]] Matrix row_subset(std::span<const std::size_t> rows) const;

  /// this = A * B (convenience for tests and small host-side products).
  [[nodiscard]] static Matrix multiply(const Matrix& a, bool transpose_a,
                                       const Matrix& b, bool transpose_b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace ptucker::tensor
