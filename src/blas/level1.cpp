#include <cmath>
#include <cstring>

#include "blas/blas.hpp"

namespace ptucker::blas {

void axpy(std::size_t n, double alpha, const double* x, double* y) {
  add_flops(2ull * n);
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

double dot(std::size_t n, const double* x, const double* y) {
  add_flops(2ull * n);
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

double nrm2(std::size_t n, const double* x) {
  // Scaled accumulation for overflow safety (netlib dnrm2 style).
  add_flops(2ull * n);
  double scale = 0.0;
  double ssq = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = std::fabs(x[i]);
    if (xi == 0.0) continue;
    if (scale < xi) {
      const double r = scale / xi;
      ssq = 1.0 + ssq * r * r;
      scale = xi;
    } else {
      const double r = xi / scale;
      ssq += r * r;
    }
  }
  return scale * std::sqrt(ssq);
}

void scal(std::size_t n, double alpha, double* x) {
  add_flops(n);
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void copy(std::size_t n, const double* x, double* y) {
  // An empty range may come with a null pointer, which std::memcpy rejects
  // even for zero bytes.
  if (n != 0) std::memcpy(y, x, n * sizeof(double));
}

}  // namespace ptucker::blas
