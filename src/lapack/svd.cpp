#include <vector>

#include "lapack/lapack.hpp"
#include "util/error.hpp"

namespace ptucker::la {

LeftSvd left_svd_via_qr(const double* y, std::size_t rows, std::size_t cols,
                        std::size_t ldy) {
  PT_REQUIRE(cols >= rows && rows >= 1,
             "left_svd_via_qr expects a wide matrix (rows <= cols)");
  // Y^T = Q R with Y^T tall (cols x rows); then Y = R^T Q^T, so the left
  // singular vectors of Y are those of the small square R^T, computed with
  // a numerically safe one-sided Jacobi SVD (no condition-number squaring).
  std::vector<double> yt(cols * rows);
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i < rows; ++i) {
      yt[j + i * cols] = y[i + j * ldy];
    }
  }
  std::vector<double> r(rows * rows);
  qr_r_factor(yt.data(), cols, rows, cols, r.data(), rows);

  // R^T (rows x rows).
  std::vector<double> rt(rows * rows);
  for (std::size_t j = 0; j < rows; ++j) {
    for (std::size_t i = 0; i < rows; ++i) {
      rt[i + j * rows] = r[j + i * rows];
    }
  }
  JacobiSvd svd = jacobi_svd(rt.data(), rows, rows, rows);

  LeftSvd out;
  out.rows = rows;
  out.singular_values = std::move(svd.sigma);
  out.u = std::move(svd.u);
  return out;
}

}  // namespace ptucker::la
