#include "core/metrics.hpp"

#include <cmath>

#include "mps/collectives.hpp"

namespace ptucker::core {

double normalized_error(const DistTensor& x, const DistTensor& x_tilde) {
  PT_REQUIRE(x.global_dims() == x_tilde.global_dims(),
             "normalized_error: dimension mismatch");
  const Tensor& a = x.local();
  const Tensor& b = x_tilde.local();
  double diff_sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    diff_sq += d * d;
  }
  double sums[2] = {diff_sq, a.norm_squared()};
  mps::allreduce(x.grid().comm(), std::span<double>(sums, 2));
  return sums[1] > 0.0 ? std::sqrt(sums[0] / sums[1]) : std::sqrt(sums[0]);
}

double max_abs_error(const DistTensor& x, const DistTensor& x_tilde) {
  PT_REQUIRE(x.global_dims() == x_tilde.global_dims(),
             "max_abs_error: dimension mismatch");
  const Tensor& a = x.local();
  const Tensor& b = x_tilde.local();
  double max_err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_err = std::max(max_err, std::fabs(a[i] - b[i]));
  }
  return mps::allreduce_scalar(x.grid().comm(), max_err,
                               mps::Max<double>{});
}

double modewise_error(std::span<const double> eigenvalues_desc,
                      std::size_t rank, double norm_x) {
  double tail = 0.0;
  for (std::size_t i = eigenvalues_desc.size(); i-- > rank;) {
    tail += std::max(0.0, eigenvalues_desc[i]);
  }
  return norm_x > 0.0 ? std::sqrt(tail) / norm_x : 0.0;
}

double compression_ratio(const tensor::Dims& dims, const tensor::Dims& ranks) {
  PT_REQUIRE(dims.size() == ranks.size(), "compression_ratio: order mismatch");
  double compressed = 1.0;
  for (std::size_t r : ranks) compressed *= static_cast<double>(r);
  for (std::size_t n = 0; n < dims.size(); ++n) {
    compressed += static_cast<double>(dims[n]) * static_cast<double>(ranks[n]);
  }
  return static_cast<double>(tensor::prod(dims)) / compressed;
}

}  // namespace ptucker::core
