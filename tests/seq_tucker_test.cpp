#include <gtest/gtest.h>

#include "core/seq/seq_tucker.hpp"
#include "data/synthetic.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using core::seq::SeqOptions;
using tensor::Dims;
using tensor::Tensor;

TEST(SeqSthosvd, ExactRecovery) {
  const Tensor x = data::make_low_rank_seq(Dims{9, 8, 7}, Dims{3, 2, 3}, 1);
  SeqOptions opts;
  opts.epsilon = 1e-6;
  const auto result = core::seq::seq_st_hosvd(x, opts);
  EXPECT_EQ(result.tucker.core.dims(), (Dims{3, 2, 3}));
  const Tensor xt = core::seq::seq_reconstruct(result.tucker);
  EXPECT_LT(core::seq::seq_normalized_error(x, xt), 1e-6);
}

TEST(SeqSthosvd, ErrorBoundHolds) {
  const Tensor x =
      data::make_low_rank_seq(Dims{8, 8, 8}, Dims{3, 3, 3}, 3, 0.1);
  SeqOptions opts;
  opts.epsilon = 0.25;
  const auto result = core::seq::seq_st_hosvd(x, opts);
  const Tensor xt = core::seq::seq_reconstruct(result.tucker);
  EXPECT_LE(core::seq::seq_normalized_error(x, xt), 0.25 * 1.0000001);
}

TEST(SeqSthosvd, CompressionRatioReported) {
  const Tensor x =
      data::make_low_rank_seq(Dims{10, 10, 10}, Dims{2, 2, 2}, 11);
  SeqOptions opts;
  opts.epsilon = 1e-6;
  const auto result = core::seq::seq_st_hosvd(x, opts);
  EXPECT_NEAR(result.tucker.compression_ratio(), 1000.0 / 68.0, 1e-9);
}

}  // namespace
}  // namespace ptucker
