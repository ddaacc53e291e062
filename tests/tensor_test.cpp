#include <gtest/gtest.h>

#include "dist/dist_tensor.hpp"
#include "tensor/tensor.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using tensor::Dims;
using tensor::Tensor;

TEST(Tensor, ProdHelpers) {
  EXPECT_EQ(tensor::prod({4, 3, 2}), 24u);
  EXPECT_EQ(tensor::prod_except({4, 3, 2}, 1), 8u);
  EXPECT_EQ(tensor::prod_except({4, 3, 2}, 0), 6u);
}

TEST(Tensor, LinearIndexIsFirstIndexFastest) {
  Tensor t(Dims{3, 4, 2});
  const std::size_t idx1[] = {1, 0, 0};
  const std::size_t idx2[] = {0, 1, 0};
  const std::size_t idx3[] = {0, 0, 1};
  EXPECT_EQ(t.linear_index(idx1), 1u);
  EXPECT_EQ(t.linear_index(idx2), 3u);
  EXPECT_EQ(t.linear_index(idx3), 12u);
}

TEST(Tensor, MultiIndexRoundTrip) {
  Tensor t(Dims{3, 5, 2, 4});
  for (std::size_t lin = 0; lin < t.size(); lin += 7) {
    const auto idx = t.multi_index(lin);
    EXPECT_EQ(t.linear_index(idx), lin);
  }
}

TEST(Tensor, AtReadsAndWrites) {
  Tensor t(Dims{2, 3});
  const std::size_t idx[] = {1, 2};
  t.at(idx) = 5.5;
  EXPECT_DOUBLE_EQ(t[1 + 2 * 2], 5.5);
}

TEST(Tensor, NormMatchesDefinition) {
  Tensor t(Dims{2, 2});
  t[0] = 3.0;
  t[1] = 4.0;
  EXPECT_DOUBLE_EQ(t.norm(), 5.0);
  EXPECT_DOUBLE_EQ(t.norm_squared(), 25.0);
}

TEST(Tensor, FillFromVisitsEveryIndexOnce) {
  Tensor t(Dims{3, 2, 2});
  t.fill_from([&](std::span<const std::size_t> idx) {
    return static_cast<double>(idx[0] + 10 * idx[1] + 100 * idx[2]);
  });
  const std::size_t probe[] = {2, 1, 1};
  EXPECT_DOUBLE_EQ(t.at(probe), 112.0);
  EXPECT_DOUBLE_EQ(t[0], 0.0);
}

TEST(Tensor, SubtensorExtractsBlock) {
  Tensor t(Dims{4, 5});
  t.fill_from([](std::span<const std::size_t> idx) {
    return static_cast<double>(idx[0] * 10 + idx[1]);
  });
  const Tensor sub =
      t.subtensor({util::Range{1, 3}, util::Range{2, 5}});
  EXPECT_EQ(sub.dims(), (Dims{2, 3}));
  const std::size_t probe[] = {0, 0};
  EXPECT_DOUBLE_EQ(sub.at(probe), 12.0);
  const std::size_t probe2[] = {1, 2};
  EXPECT_DOUBLE_EQ(sub.at(probe2), 24.0);
}

TEST(Tensor, SubtensorPlaceRoundTrip) {
  Tensor t = Tensor::randn(Dims{5, 4, 3}, 77);
  const std::vector<util::Range> ranges = {{1, 4}, {0, 2}, {2, 3}};
  const Tensor sub = t.subtensor(ranges);
  Tensor rebuilt(t.dims());
  dist::place_subtensor(rebuilt, ranges, sub);
  // The placed region matches; outside it stays zero.
  const Tensor roundtrip = rebuilt.subtensor(ranges);
  EXPECT_EQ(testing::max_diff(roundtrip, sub), 0.0);
}

TEST(Tensor, EmptyBlockSupported) {
  Tensor t(Dims{0, 3});
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.norm(), 0.0);
}

TEST(Tensor, AxpyAndScale) {
  Tensor a(Dims{2, 2}, 1.0);
  Tensor b(Dims{2, 2}, 2.0);
  a.axpy(3.0, b);
  EXPECT_DOUBLE_EQ(a[0], 7.0);
  a.scale(0.5);
  EXPECT_DOUBLE_EQ(a[3], 3.5);
}

TEST(UnfoldShape, PartitionsDims) {
  const Dims dims{4, 5, 6, 7};
  for (int mode = 0; mode < 4; ++mode) {
    const auto s = tensor::unfold_shape(dims, mode);
    EXPECT_EQ(s.left * s.mid * s.right, tensor::prod(dims));
    EXPECT_EQ(s.mid, dims[static_cast<std::size_t>(mode)]);
  }
  EXPECT_EQ(tensor::unfold_shape(dims, 0).left, 1u);
  EXPECT_EQ(tensor::unfold_shape(dims, 3).right, 1u);
}

TEST(Matrix, TransposedAndBlocks) {
  tensor::Matrix m(3, 4);
  for (std::size_t j = 0; j < 4; ++j) {
    for (std::size_t i = 0; i < 3; ++i) {
      m(i, j) = static_cast<double>(10 * i + j);
    }
  }
  const tensor::Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 4u);
  EXPECT_DOUBLE_EQ(t(2, 1), m(1, 2));

  const tensor::Matrix rb = m.row_block({1, 3});
  EXPECT_EQ(rb.rows(), 2u);
  EXPECT_DOUBLE_EQ(rb(0, 0), 10.0);

  const tensor::Matrix cb = m.col_block({2, 4});
  EXPECT_EQ(cb.cols(), 2u);
  EXPECT_DOUBLE_EQ(cb(0, 0), 2.0);

  const std::vector<std::size_t> rows = {2, 0};
  const tensor::Matrix rs =
      m.row_subset(std::span<const std::size_t>(rows));
  EXPECT_DOUBLE_EQ(rs(0, 1), 21.0);
  EXPECT_DOUBLE_EQ(rs(1, 1), 1.0);
}

TEST(Matrix, RandomOrthonormalHasOrthonormalColumns) {
  const tensor::Matrix q = tensor::Matrix::random_orthonormal(20, 6, 3);
  EXPECT_LT(testing::orthonormality_defect(q), 1e-12);
}

TEST(Matrix, MultiplyMatchesManualComputation) {
  tensor::Matrix a(2, 3);
  tensor::Matrix b(3, 2);
  int v = 1;
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t i = 0; i < 2; ++i) a(i, j) = v++;
  }
  v = 1;
  for (std::size_t j = 0; j < 2; ++j) {
    for (std::size_t i = 0; i < 3; ++i) b(i, j) = v++;
  }
  const tensor::Matrix c = tensor::Matrix::multiply(a, false, b, false);
  // a = [1 3 5; 2 4 6], b = [1 4; 2 5; 3 6].
  EXPECT_DOUBLE_EQ(c(0, 0), 1 * 1 + 3 * 2 + 5 * 3);
  EXPECT_DOUBLE_EQ(c(1, 1), 2 * 4 + 4 * 5 + 6 * 6);
}

}  // namespace
}  // namespace ptucker
