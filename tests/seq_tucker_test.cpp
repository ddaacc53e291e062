#include <gtest/gtest.h>

#include "core/seq/seq_tucker.hpp"
#include "data/synthetic.hpp"
#include "test_utils.hpp"

namespace ptucker {
namespace {

using core::seq::FactorMethod;
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

TEST(SeqSthosvd, SvdQrMethodAgreesWithGramRoute) {
  // The Sec. IX Gram-free path must yield the same subspaces and errors in
  // well-conditioned settings.
  const Tensor x =
      data::make_low_rank_seq(Dims{6, 8, 7}, Dims{2, 3, 2}, 7, 0.05);
  SeqOptions gram_opts;
  gram_opts.epsilon = 1e-3;
  SeqOptions qr_opts = gram_opts;
  qr_opts.method = FactorMethod::SvdQr;
  const auto a = core::seq::seq_st_hosvd(x, gram_opts);
  const auto b = core::seq::seq_st_hosvd(x, qr_opts);
  EXPECT_EQ(a.tucker.core.dims(), b.tucker.core.dims());
  const double err_a = core::seq::seq_normalized_error(
      x, core::seq::seq_reconstruct(a.tucker));
  const double err_b = core::seq::seq_normalized_error(
      x, core::seq::seq_reconstruct(b.tucker));
  EXPECT_NEAR(err_a, err_b, 1e-7);
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
