#pragma once
/// \file tucker_tensor.hpp
/// \brief The compressed representation: core tensor G (distributed) plus
/// factor matrices U(n) (replicated), X ~ G x1 U(1) x2 ... xN U(N).

#include "dist/dist_tensor.hpp"
#include "tensor/matrix.hpp"

namespace ptucker::core {

using dist::DistTensor;
using tensor::Dims;
using tensor::Matrix;
using tensor::Tensor;

struct TuckerTensor {
  DistTensor core;              ///< G, size R1 x ... x RN, block distributed
  std::vector<Matrix> factors;  ///< U(n): In x Rn, replicated on every rank

  [[nodiscard]] int order() const {
    return static_cast<int>(factors.size());
  }

  /// Dimensions of the (uncompressed) data tensor.
  [[nodiscard]] Dims data_dims() const;

  /// Reduced dimensions (R1, ..., RN).
  [[nodiscard]] Dims core_dims() const { return core.global_dims(); }

  /// Element count of the compressed representation:
  /// prod(Rn) + sum(In * Rn)  (paper Sec. VII-B).
  [[nodiscard]] std::size_t compressed_elements() const;

  /// Element count of the original data: prod(In).
  [[nodiscard]] std::size_t original_elements() const;

  /// Compression ratio C = original / compressed (paper eq. in Sec. VII-B).
  [[nodiscard]] double compression_ratio() const;
};

}  // namespace ptucker::core
