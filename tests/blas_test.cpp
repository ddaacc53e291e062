#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "blas/blas.hpp"
#include "blas/kernel_core.hpp"
#include "test_utils.hpp"
#include "util/rng.hpp"

namespace ptucker {
namespace {

using blas::Trans;

/// Naive reference gemm.
void ref_gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
              double alpha, const std::vector<double>& a, std::size_t lda,
              const std::vector<double>& b, std::size_t ldb, double beta,
              std::vector<double>& c, std::size_t ldc) {
  auto at = [&](std::size_t i, std::size_t l) {
    return ta == Trans::No ? a[i + l * lda] : a[l + i * lda];
  };
  auto bt = [&](std::size_t l, std::size_t j) {
    return tb == Trans::No ? b[l + j * ldb] : b[j + l * ldb];
  };
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (std::size_t l = 0; l < k; ++l) s += at(i, l) * bt(l, j);
      c[i + j * ldc] = beta * c[i + j * ldc] + alpha * s;
    }
  }
}

std::vector<double> random_buffer(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  util::Rng rng(seed);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Parameter: (m, n, k) — includes microkernel edges (MR=NR=8) and odd
/// shapes.
class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(4, 8, 16),
                      std::make_tuple(5, 9, 3), std::make_tuple(3, 7, 1),
                      std::make_tuple(16, 16, 16), std::make_tuple(33, 17, 29),
                      std::make_tuple(128, 12, 4), std::make_tuple(2, 130, 70),
                      std::make_tuple(150, 150, 150),
                      std::make_tuple(260, 7, 300)),
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "n" +
             std::to_string(std::get<1>(info.param)) + "k" +
             std::to_string(std::get<2>(info.param));
    });

TEST_P(GemmShapes, AllTransposeCombosMatchReference) {
  const auto [mi, ni, ki] = GetParam();
  const std::size_t m = static_cast<std::size_t>(mi);
  const std::size_t n = static_cast<std::size_t>(ni);
  const std::size_t k = static_cast<std::size_t>(ki);
  for (Trans ta : {Trans::No, Trans::Yes}) {
    for (Trans tb : {Trans::No, Trans::Yes}) {
      const std::size_t lda = (ta == Trans::No) ? m : k;
      const std::size_t ldb = (tb == Trans::No) ? k : n;
      const auto a = random_buffer(lda * ((ta == Trans::No) ? k : m), 1);
      const auto b = random_buffer(ldb * ((tb == Trans::No) ? n : k), 2);
      auto c = random_buffer(m * n, 3);
      auto c_ref = c;
      blas::gemm(ta, tb, m, n, k, 1.3, a.data(), lda, b.data(), ldb, 0.7,
                 c.data(), m);
      ref_gemm(ta, tb, m, n, k, 1.3, a, lda, b, ldb, 0.7, c_ref, m);
      EXPECT_LT(testing::max_diff(c.data(), c_ref.data(), m * n), 1e-11)
          << "ta=" << static_cast<int>(ta) << " tb=" << static_cast<int>(tb);
    }
  }
}

TEST(Gemm, BetaZeroOverwritesEvenNaN) {
  const std::size_t m = 6;
  const std::size_t n = 5;
  const std::size_t k = 4;
  const auto a = random_buffer(m * k, 1);
  const auto b = random_buffer(k * n, 2);
  std::vector<double> c(m * n, std::nan(""));
  blas::gemm(Trans::No, Trans::No, m, n, k, 1.0, a.data(), m, b.data(), k,
             0.0, c.data(), m);
  for (double v : c) EXPECT_TRUE(std::isfinite(v));
}

TEST(Gemm, AlphaZeroOnlyScalesC) {
  const std::size_t m = 3;
  const std::size_t n = 3;
  auto c = random_buffer(m * n, 5);
  auto expected = c;
  for (double& v : expected) v *= 2.0;
  // k = 0 with beta = 2: pure scaling.
  blas::gemm(Trans::No, Trans::No, m, n, 0, 1.0, nullptr, 1, nullptr, 1, 2.0,
             c.data(), m);
  EXPECT_LT(testing::max_diff(c.data(), expected.data(), m * n), 1e-15);
}

TEST(Gemm, LargerLeadingDimensions) {
  const std::size_t m = 7;
  const std::size_t n = 6;
  const std::size_t k = 5;
  const std::size_t lda = 11;
  const std::size_t ldb = 9;
  const std::size_t ldc = 13;
  const auto a = random_buffer(lda * k, 1);
  const auto b = random_buffer(ldb * n, 2);
  auto c = random_buffer(ldc * n, 3);
  auto c_ref = c;
  blas::gemm(Trans::No, Trans::No, m, n, k, 1.0, a.data(), lda, b.data(), ldb,
             0.0, c.data(), ldc);
  ref_gemm(Trans::No, Trans::No, m, n, k, 1.0, a, lda, b, ldb, 0.0, c_ref,
           ldc);
  EXPECT_LT(testing::max_diff(c.data(), c_ref.data(), ldc * n), 1e-12);
}

TEST(Syrk, FullMatchesGemmBothTriangles) {
  const std::size_t n = 17;
  const std::size_t k = 23;
  const auto a = random_buffer(n * k, 4);
  std::vector<double> c(n * n, 0.0);
  blas::syrk_full(Trans::No, n, k, 1.0, a.data(), n, 0.0, c.data(), n);
  std::vector<double> expected(n * n, 0.0);
  ref_gemm(Trans::No, Trans::Yes, n, n, k, 1.0, a, n, a, n, 0.0, expected, n);
  EXPECT_LT(testing::max_diff(c.data(), expected.data(), n * n), 1e-11);
  // Result is symmetric.
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(c[i + j * n], c[j + i * n], 1e-12);
    }
  }
}

TEST(Syrk, TransposedVariant) {
  const std::size_t n = 9;
  const std::size_t k = 31;
  const auto a = random_buffer(k * n, 6);  // A is k x n; op(A) = A^T
  std::vector<double> c(n * n, 0.0);
  blas::syrk_full(Trans::Yes, n, k, 2.0, a.data(), k, 0.0, c.data(), n);
  std::vector<double> expected(n * n, 0.0);
  ref_gemm(Trans::Yes, Trans::No, n, n, k, 2.0, a, k, a, k, 0.0, expected, n);
  EXPECT_LT(testing::max_diff(c.data(), expected.data(), n * n), 1e-11);
}

TEST(Syrk, LowerPlusSymmetrizeMatchesFull) {
  const std::size_t n = 40;
  const std::size_t k = 21;
  const auto a = random_buffer(n * k, 7);
  std::vector<double> full(n * n, 0.0);
  blas::syrk_full(Trans::No, n, k, 1.0, a.data(), n, 0.0, full.data(), n);
  std::vector<double> lower(n * n, 0.0);
  blas::syrk_lower(Trans::No, n, k, 1.0, a.data(), n, 0.0, lower.data(), n);
  blas::symmetrize_from_lower(n, lower.data(), n);
  EXPECT_LT(testing::max_diff(full.data(), lower.data(), n * n), 1e-11);
}

TEST(Level1, DotAxpyNrm2ScalCopy) {
  const auto x = random_buffer(100, 11);
  auto y = random_buffer(100, 12);
  const auto y0 = y;

  double dot_ref = 0.0;
  for (std::size_t i = 0; i < 100; ++i) dot_ref += x[i] * y[i];
  EXPECT_NEAR(blas::dot(100, x.data(), y.data()), dot_ref, 1e-12);

  blas::axpy(100, 2.5, x.data(), y.data());
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_NEAR(y[i], y0[i] + 2.5 * x[i], 1e-14);
  }

  double ss = 0.0;
  for (double v : x) ss += v * v;
  EXPECT_NEAR(blas::nrm2(100, x.data()), std::sqrt(ss), 1e-12);

  auto z = x;
  blas::scal(100, -3.0, z.data());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_NEAR(z[i], -3.0 * x[i], 1e-14);

  std::vector<double> w(100);
  blas::copy(100, x.data(), w.data());
  EXPECT_EQ(testing::max_diff(w.data(), x.data(), 100), 0.0);
}

TEST(Level1, Nrm2OverflowSafety) {
  std::vector<double> big = {1e200, 1e200};
  EXPECT_NEAR(blas::nrm2(2, big.data()) / 1.414213562373095e200, 1.0, 1e-12);
  std::vector<double> zero = {0.0, 0.0, 0.0};
  EXPECT_EQ(blas::nrm2(3, zero.data()), 0.0);
}

TEST(GemmThreads, MultiThreadedMatchesSingleThreaded) {
  // Sec. IX intra-kernel threading must be bit-compatible in structure:
  // disjoint column stripes run the identical kernel, so results match the
  // single-threaded run exactly.
  const std::size_t m = 208;
  const std::size_t n = 230;
  const std::size_t k = 400;  // 2*m*n*k > threshold so threading engages
  const auto a = random_buffer(m * k, 21);
  const auto b = random_buffer(k * n, 22);
  for (Trans ta : {Trans::No, Trans::Yes}) {
    for (Trans tb : {Trans::No, Trans::Yes}) {
      const std::size_t lda = (ta == Trans::No) ? m : k;
      const std::size_t ldb = (tb == Trans::No) ? k : n;
      auto c1 = random_buffer(m * n, 23);
      auto c4 = c1;
      blas::set_gemm_threads(1);
      blas::gemm(ta, tb, m, n, k, 1.5, a.data(), lda, b.data(), ldb, 0.5,
                 c1.data(), m);
      blas::set_gemm_threads(4);
      blas::gemm(ta, tb, m, n, k, 1.5, a.data(), lda, b.data(), ldb, 0.5,
                 c4.data(), m);
      blas::set_gemm_threads(1);
      EXPECT_EQ(testing::max_diff(c1.data(), c4.data(), m * n), 0.0)
          << "ta=" << static_cast<int>(ta) << " tb=" << static_cast<int>(tb);
    }
  }
}

TEST(GemmThreads, FlopCountIndependentOfThreading) {
  const std::size_t m = 272;  // 2*m*n*k > threshold so threading engages
  const std::size_t n = 272;
  const std::size_t k = 272;
  const auto a = random_buffer(m * k, 1);
  const auto b = random_buffer(k * n, 2);
  std::vector<double> c(m * n, 0.0);
  blas::set_gemm_threads(3);
  blas::reset_flop_count();
  blas::gemm(Trans::No, Trans::No, m, n, k, 1.0, a.data(), m, b.data(), k,
             0.0, c.data(), m);
  blas::set_gemm_threads(1);
  EXPECT_EQ(blas::flop_count(), 2ull * m * n * k);
}

TEST(GemmThreads, SmallProblemsStaySingleThreaded) {
  // No crash / correct results below the size threshold.
  blas::set_gemm_threads(8);
  const std::size_t m = 5;
  const std::size_t n = 6;
  const std::size_t k = 4;
  const auto a = random_buffer(m * k, 3);
  const auto b = random_buffer(k * n, 4);
  std::vector<double> c(m * n, 0.0);
  std::vector<double> c_ref(m * n, 0.0);
  blas::gemm(Trans::No, Trans::No, m, n, k, 1.0, a.data(), m, b.data(), k,
             0.0, c.data(), m);
  blas::set_gemm_threads(1);
  ref_gemm(Trans::No, Trans::No, m, n, k, 1.0, a, m, b, k, 0.0, c_ref, m);
  EXPECT_LT(testing::max_diff(c.data(), c_ref.data(), m * n), 1e-12);
}

TEST(Flops, GemmCountsTwoMNK) {
  blas::reset_flop_count();
  const std::size_t m = 10;
  const std::size_t n = 11;
  const std::size_t k = 12;
  const auto a = random_buffer(m * k, 1);
  const auto b = random_buffer(k * n, 2);
  std::vector<double> c(m * n, 0.0);
  blas::gemm(Trans::No, Trans::No, m, n, k, 1.0, a.data(), m, b.data(), k,
             0.0, c.data(), m);
  EXPECT_EQ(blas::flop_count(), 2ull * m * n * k);
}

TEST(Flops, SyrkLowerCountsAboutHalf) {
  const std::size_t n = 128;
  const std::size_t k = 64;
  const auto a = random_buffer(n * k, 1);
  std::vector<double> c(n * n, 0.0);
  blas::reset_flop_count();
  blas::syrk_full(Trans::No, n, k, 1.0, a.data(), n, 0.0, c.data(), n);
  const auto full_flops = blas::flop_count();
  blas::reset_flop_count();
  blas::syrk_lower(Trans::No, n, k, 1.0, a.data(), n, 0.0, c.data(), n);
  const auto lower_flops = blas::flop_count();
  EXPECT_LT(static_cast<double>(lower_flops),
            0.75 * static_cast<double>(full_flops));
}

TEST(Flops, SyrkLowerCountsSymmetricModelExactly) {
  // The symmetric kernel reports n(n+1)k — the lower triangle counted
  // once — not the ~2n^2k its old internal gemm decomposition inherited,
  // so sym-vs-full GF/s columns in the benches are comparable.
  const std::size_t n = 37;
  const std::size_t k = 19;
  const auto a = random_buffer(n * k, 2);
  std::vector<double> c(n * n, 0.0);
  blas::reset_flop_count();
  blas::syrk_lower(Trans::No, n, k, 1.0, a.data(), n, 0.0, c.data(), n);
  EXPECT_EQ(blas::flop_count(), n * (n + 1) * k);
  blas::reset_flop_count();
  const std::size_t batch = 5;
  const auto ab = random_buffer(n * k * batch, 3);
  blas::syrk_lower_batch_strided(Trans::Yes, n, k, 1.0, ab.data(), k, n * k,
                                 0.0, c.data(), n, batch);
  EXPECT_EQ(blas::flop_count(), n * (n + 1) * k * batch);
}

TEST(Flops, GemmBatchCountsAggregate) {
  const std::size_t m = 6;
  const std::size_t n = 7;
  const std::size_t k = 8;
  const std::size_t batch = 9;
  const auto a = random_buffer(m * k * batch, 1);
  const auto b = random_buffer(k * n, 2);
  std::vector<double> c(m * n * batch, 0.0);
  blas::reset_flop_count();
  blas::gemm_batch_strided(Trans::No, Trans::No, m, n, k, 1.0, a.data(), m,
                           m * k, b.data(), k, 0, 0.0, c.data(), m, m * n,
                           batch);
  EXPECT_EQ(blas::flop_count(), 2ull * m * n * k * batch);
}

/// Oracle for gemm_batch_strided: loop ref_gemm over the items, honoring
/// the stride_c == 0 fused-accumulation semantics.
void ref_gemm_batch(Trans ta, Trans tb, std::size_t m, std::size_t n,
                    std::size_t k, double alpha, const std::vector<double>& a,
                    std::size_t lda, std::size_t stride_a,
                    const std::vector<double>& b, std::size_t ldb,
                    std::size_t stride_b, double beta, std::vector<double>& c,
                    std::size_t ldc, std::size_t stride_c, std::size_t batch) {
  for (std::size_t r = 0; r < batch; ++r) {
    std::vector<double> ar(a.begin() + static_cast<std::ptrdiff_t>(r * stride_a),
                           a.end());
    std::vector<double> br(b.begin() + static_cast<std::ptrdiff_t>(r * stride_b),
                           b.end());
    std::vector<double> cr(c.begin() + static_cast<std::ptrdiff_t>(r * stride_c),
                           c.end());
    const double beta_r = (stride_c == 0 && r > 0) ? 1.0 : beta;
    ref_gemm(ta, tb, m, n, k, alpha, ar, lda, br, ldb, beta_r, cr, ldc);
    std::copy(cr.begin(), cr.begin() + static_cast<std::ptrdiff_t>(m + (n - 1) * ldc),
              c.begin() + static_cast<std::ptrdiff_t>(r * stride_c));
  }
}

/// Parameter: (m, n, k, batch) with ragged sizes — none a multiple of the
/// MR=NR=8 / KC=256 blocking, plus KC-crossing contractions.
class BatchShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, BatchShapes,
    ::testing::Values(std::make_tuple(5, 9, 7, 3), std::make_tuple(1, 1, 1, 4),
                      std::make_tuple(33, 17, 29, 2),
                      std::make_tuple(130, 3, 70, 3),
                      std::make_tuple(12, 19, 260, 2),
                      std::make_tuple(7, 30, 11, 1)),
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "n" +
             std::to_string(std::get<1>(info.param)) + "k" +
             std::to_string(std::get<2>(info.param)) + "b" +
             std::to_string(std::get<3>(info.param));
    });

TEST_P(BatchShapes, StridedBatchMatchesPerItemLoop) {
  const auto [mi, ni, ki, bi] = GetParam();
  const std::size_t m = static_cast<std::size_t>(mi);
  const std::size_t n = static_cast<std::size_t>(ni);
  const std::size_t k = static_cast<std::size_t>(ki);
  const std::size_t batch = static_cast<std::size_t>(bi);
  for (Trans ta : {Trans::No, Trans::Yes}) {
    for (Trans tb : {Trans::No, Trans::Yes}) {
      for (double beta : {0.0, 1.0, 0.5}) {
        const std::size_t lda = (ta == Trans::No) ? m : k;
        const std::size_t ldb = (tb == Trans::No) ? k : n;
        const std::size_t sa = lda * ((ta == Trans::No) ? k : m);
        const std::size_t sb = ldb * ((tb == Trans::No) ? n : k);
        const auto a = random_buffer(sa * batch, 11);
        const auto b = random_buffer(sb * batch, 12);
        // (a) per-item C, distinct B: general loop.
        auto c = random_buffer(m * n * batch, 13);
        auto c_ref = c;
        blas::gemm_batch_strided(ta, tb, m, n, k, 1.3, a.data(), lda, sa,
                                 b.data(), ldb, sb, beta, c.data(), m, m * n,
                                 batch);
        ref_gemm_batch(ta, tb, m, n, k, 1.3, a, lda, sa, b, ldb, sb, beta,
                       c_ref, m, m * n, batch);
        EXPECT_LT(testing::max_diff(c.data(), c_ref.data(), m * n * batch),
                  1e-11);
        // (b) shared B (stride_b == 0): the TTM shape.
        auto c2 = random_buffer(m * n * batch, 14);
        auto c2_ref = c2;
        blas::gemm_batch_strided(ta, tb, m, n, k, 1.3, a.data(), lda, sa,
                                 b.data(), ldb, 0, beta, c2.data(), m, m * n,
                                 batch);
        ref_gemm_batch(ta, tb, m, n, k, 1.3, a, lda, sa, b, ldb, 0, beta,
                       c2_ref, m, m * n, batch);
        EXPECT_LT(testing::max_diff(c2.data(), c2_ref.data(), m * n * batch),
                  1e-11);
        // B is packed once per KC slab for the whole batch, but each item
        // keeps its own KC loop: bit-equal to one gemm per slice.
        auto c2_loop = random_buffer(m * n * batch, 14);
        for (std::size_t r = 0; r < batch; ++r) {
          blas::gemm(ta, tb, m, n, k, 1.3, a.data() + r * sa, lda, b.data(),
                     ldb, beta, c2_loop.data() + r * m * n, m);
        }
        EXPECT_EQ(testing::max_diff(c2.data(), c2_loop.data(), m * n * batch),
                  0.0)
            << "shared-B batch must be bit-equal to the slice loop";
        // (c) fused accumulation (stride_c == 0): the Gram shape. The fused
        // KC loop must match the per-item loop *bit for bit* (clipped
        // slabs), not just to tolerance.
        auto c3 = random_buffer(m * n, 15);
        auto c3_ref = c3;
        blas::gemm_batch_strided(ta, tb, m, n, k, 1.3, a.data(), lda, sa,
                                 b.data(), ldb, sb, beta, c3.data(), m, 0,
                                 batch);
        for (std::size_t r = 0; r < batch; ++r) {
          blas::gemm(ta, tb, m, n, k, 1.3, a.data() + r * sa, lda,
                     b.data() + r * sb, ldb, r == 0 ? beta : 1.0,
                     c3_ref.data(), m);
        }
        EXPECT_EQ(testing::max_diff(c3.data(), c3_ref.data(), m * n), 0.0)
            << "fused-k accumulation must be bit-equal to the slice loop";
      }
    }
  }
}

/// Parameter: (n, k) ragged for the packed syrk — not multiples of MR, NR,
/// or KC; includes MC- and KC-crossing sizes.
class SyrkShapes : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, SyrkShapes,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(5, 3),
                      std::make_tuple(33, 29), std::make_tuple(40, 21),
                      std::make_tuple(129, 257), std::make_tuple(7, 300),
                      std::make_tuple(150, 70)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "k" +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(SyrkShapes, PackedLowerMatchesReferenceAndLeavesUpperUntouched) {
  const auto [ni, ki] = GetParam();
  const std::size_t n = static_cast<std::size_t>(ni);
  const std::size_t k = static_cast<std::size_t>(ki);
  for (Trans trans : {Trans::No, Trans::Yes}) {
    for (double beta : {0.0, 1.0, 0.5}) {
      const std::size_t lda = (trans == Trans::No) ? n : k;
      const auto a = random_buffer(n * k, 21);
      auto c = random_buffer(n * n, 22);
      auto c_ref = c;
      blas::syrk_lower(trans, n, k, 1.7, a.data(), lda, beta, c.data(), n);
      // Reference: full gemm, then merge — lower triangle from the gemm,
      // upper row-major entries must still hold the original C values.
      std::vector<double> full = c_ref;
      if (trans == Trans::No) {
        ref_gemm(Trans::No, Trans::Yes, n, n, k, 1.7, a, lda, a, lda, beta,
                 full, n);
      } else {
        ref_gemm(Trans::Yes, Trans::No, n, n, k, 1.7, a, lda, a, lda, beta,
                 full, n);
      }
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
          const double expected = (i >= j) ? full[i + j * n]
                                           : c_ref[i + j * n];
          EXPECT_NEAR(c[i + j * n], expected, 1e-11)
              << "i=" << i << " j=" << j << " trans=" << static_cast<int>(trans)
              << " beta=" << beta;
        }
      }
    }
  }
}

TEST_P(SyrkShapes, BatchedLowerBitEqualsSliceLoop) {
  const auto [ni, ki] = GetParam();
  const std::size_t n = static_cast<std::size_t>(ni);
  const std::size_t k = static_cast<std::size_t>(ki);
  const std::size_t batch = 3;
  for (Trans trans : {Trans::No, Trans::Yes}) {
    const std::size_t lda = (trans == Trans::No) ? n : k;
    const std::size_t stride = n * k;
    const auto a = random_buffer(stride * batch, 31);
    auto c = random_buffer(n * n, 32);
    auto c_ref = c;
    blas::syrk_lower_batch_strided(trans, n, k, 1.0, a.data(), lda, stride,
                                   0.0, c.data(), n, batch);
    for (std::size_t r = 0; r < batch; ++r) {
      blas::syrk_lower(trans, n, k, 1.0, a.data() + r * stride, lda,
                       r == 0 ? 0.0 : 1.0, c_ref.data(), n);
    }
    EXPECT_EQ(testing::max_diff(c.data(), c_ref.data(), n * n), 0.0);
  }
}

TEST(Syrk, SymmetrizeFromLowerTiledMatchesNaive) {
  // Sizes around and beyond the TB=64 tile, plus a padded ldc.
  for (std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                        std::size_t{65}, std::size_t{200}}) {
    const std::size_t ldc = n + 3;
    auto c = random_buffer(ldc * n, 41);
    auto naive = c;
    blas::symmetrize_from_lower(n, c.data(), ldc);
    for (std::size_t j = 1; j < n; ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        naive[j * ldc + i] = naive[i * ldc + j];
      }
    }
    EXPECT_EQ(testing::max_diff(c.data(), naive.data(), ldc * n), 0.0)
        << "n=" << n;
  }
}

TEST(GemmThreads, BatchedPathsMatchAcrossThreadCounts) {
  // The batched entry points must be bit-deterministic in the thread count,
  // exactly like plain gemm: tile ownership moves, arithmetic does not.
  // Aggregate flops cross kThreadFlopThreshold for the gemm AND the
  // (halved) syrk model, and each fused syrk slab (one item, k = KC)
  // crosses kThreadFlopsPerSlabMin.
  const std::size_t m = 160;
  const std::size_t n = 60;
  const std::size_t k = 256;
  const std::size_t batch = 8;
  const auto a = random_buffer(m * k * batch, 51);
  const auto b = random_buffer(k * n, 52);
  std::vector<double> c1(m * n * batch);
  std::vector<double> c4(m * n * batch);
  std::vector<double> g1(m * m);
  std::vector<double> g4(m * m);
  for (int threads : {1, 4}) {
    blas::set_gemm_threads(threads);
    auto& c = threads == 1 ? c1 : c4;
    auto& g = threads == 1 ? g1 : g4;
    blas::gemm_batch_strided(Trans::No, Trans::No, m, n, k, 1.0, a.data(), m,
                             m * k, b.data(), k, 0, 0.0, c.data(), m, m * n,
                             batch);
    blas::syrk_lower_batch_strided(Trans::Yes, m, k, 1.0, a.data(), k, m * k,
                                   0.0, g.data(), m, batch);
  }
  blas::set_gemm_threads(1);
  EXPECT_EQ(testing::max_diff(c1.data(), c4.data(), m * n * batch), 0.0);
  EXPECT_EQ(testing::max_diff(g1.data(), g4.data(), m * m), 0.0);
}

// --- microkernel paths ------------------------------------------------------
//
// The engine runs one of three microkernel bodies (blas/kernel_core.hpp).
// These cases run each body this CPU supports on the same requests, through
// detail::run_engine's explicit-path overload, and skip the others. Nothing
// here assumes the portable body is uncontracted: a -march=native build may
// compile its multiply-add into FMA.

using blas::detail::EngineArgs;
using blas::detail::KernelPath;

constexpr KernelPath kAllPaths[] = {KernelPath::Portable, KernelPath::Avx2,
                                    KernelPath::Avx512};

const char* path_name(KernelPath p) {
  switch (p) {
    case KernelPath::Portable:
      return "portable";
    case KernelPath::Avx2:
      return "avx2";
    case KernelPath::Avx512:
      return "avx512";
  }
  return "?";
}

/// One engine request with its own operands. The C buffer covers every
/// item; run() returns the C the request leaves behind.
struct EngineCase {
  std::string name;
  EngineArgs args;
  std::vector<double> a;
  std::vector<double> b;  // empty when op(B) reads A (syrk)
  std::vector<double> c0;
  std::size_t k_sum = 0;  // contraction length each element accumulates

  std::vector<double> run(KernelPath path) const { return run(path, args); }

  std::vector<double> run(KernelPath path, EngineArgs g) const {
    std::vector<double> c = c0;
    g.a = a.data();
    g.b = b.empty() ? a.data() : b.data();
    g.c = c.data();
    blas::detail::run_engine(g, path);
    return c;
  }

  /// |alpha| * sum_l |op(A)(i,l)| |op(B)(l,j)| for every element of C, from
  /// the portable body on |A| and |B| (its own rounding is far below the
  /// tolerance this feeds).
  std::vector<double> abs_products() const {
    EngineCase abs_case = *this;
    for (double& x : abs_case.a) x = std::fabs(x);
    for (double& x : abs_case.b) x = std::fabs(x);
    std::fill(abs_case.c0.begin(), abs_case.c0.end(), 0.0);
    EngineArgs g = args;
    g.alpha = std::fabs(args.alpha);
    g.beta = 0.0;
    return abs_case.run(KernelPath::Portable, g);
  }
};

EngineCase gemm_case(Trans ta, Trans tb, std::size_t m, std::size_t n,
                     std::size_t k, std::size_t batch, bool fused_c,
                     double beta, std::uint64_t seed) {
  EngineCase ec;
  ec.name = "gemm m" + std::to_string(m) + " n" + std::to_string(n) + " k" +
            std::to_string(k) + " batch" + std::to_string(batch) +
            (batch > 1 ? (fused_c ? " fused" : " strided") : "") + " ta" +
            std::to_string(static_cast<int>(ta)) + " tb" +
            std::to_string(static_cast<int>(tb)) + " beta" +
            std::to_string(beta);
  EngineArgs& g = ec.args;
  g.ta = ta;
  g.tb = tb;
  g.m = m;
  g.n = n;
  g.k = k;
  g.alpha = 1.3;
  g.beta = beta;
  g.lda = ta == Trans::No ? m : k;
  g.ldb = tb == Trans::No ? k : n;
  g.ldc = m;
  g.batch = batch;
  g.stride_a = g.lda * (ta == Trans::No ? k : m);
  // Fused batches read one B per item; strided batches share one B.
  g.stride_b = fused_c ? g.ldb * (tb == Trans::No ? n : k) : 0;
  g.stride_c = fused_c ? 0 : m * n;
  ec.a = random_buffer(g.stride_a * batch, seed);
  ec.b = random_buffer(g.ldb * (tb == Trans::No ? n : k) *
                           (fused_c ? batch : 1),
                       seed + 1);
  ec.c0 = random_buffer(m * n * (fused_c ? 1 : batch), seed + 2);
  ec.k_sum = fused_c ? k * batch : k;
  return ec;
}

/// The syrk_lower request: op(B) = op(A)^T read from the same buffer.
EngineCase syrk_case(Trans trans, std::size_t n, std::size_t k,
                     std::size_t batch, double beta, std::uint64_t seed) {
  EngineCase ec;
  ec.name = "syrk n" + std::to_string(n) + " k" + std::to_string(k) +
            " batch" + std::to_string(batch) + " trans" +
            std::to_string(static_cast<int>(trans)) + " beta" +
            std::to_string(beta);
  EngineArgs& g = ec.args;
  g.ta = trans;
  g.tb = trans == Trans::No ? Trans::Yes : Trans::No;
  g.m = n;
  g.n = n;
  g.k = k;
  g.alpha = 0.7;
  g.beta = beta;
  g.lda = trans == Trans::No ? n : k;
  g.ldb = g.lda;
  g.stride_a = n * k;
  g.stride_b = n * k;
  g.ldc = n;
  g.batch = batch;
  g.lower_only = true;
  ec.a = random_buffer(n * k * batch, seed);
  ec.c0 = random_buffer(n * n, seed + 2);
  ec.k_sum = k * batch;
  return ec;
}

/// Ragged requests of every engine shape: m, n, k not multiples of 8,
/// k > KC, n > NC and m > MC, each Trans combination and beta in
/// {0, 1, 0.5}; fused, strided and lower_only batches.
std::vector<EngineCase> ragged_cases() {
  struct Shape {
    std::size_t m, n, k, batch;
    bool fused_c;
  };
  const Shape gemm_shapes[] = {
      {13, 11, 7, 1, true},    {29, 37, 300, 1, true},
      {9, 2061, 5, 1, true},   {139, 10, 17, 1, true},
      {21, 19, 13, 3, true},   {10, 9, 270, 2, true},
      {19, 13, 11, 4, false},  {140, 10, 260, 2, false},
      {3, 2053, 4, 2, false},
  };
  const std::size_t syrk_shapes[][3] = {
      {37, 29, 1}, {45, 300, 2}, {150, 19, 3}, {5, 3, 1}};
  std::vector<EngineCase> cases;
  std::uint64_t seed = 100;
  for (double beta : {0.0, 1.0, 0.5}) {
    for (Trans ta : {Trans::No, Trans::Yes}) {
      for (Trans tb : {Trans::No, Trans::Yes}) {
        for (const Shape& s : gemm_shapes) {
          cases.push_back(gemm_case(ta, tb, s.m, s.n, s.k, s.batch, s.fused_c,
                                    beta, seed += 3));
        }
      }
      for (const auto& s : syrk_shapes) {
        cases.push_back(syrk_case(ta, s[0], s[1], s[2], beta, seed += 3));
      }
    }
  }
  return cases;
}

/// Requests large enough that gemm_threads > 1 forks (aggregate flops and
/// flops per KC slab above kernel_core.hpp's thresholds).
std::vector<EngineCase> threaded_cases() {
  std::vector<EngineCase> cases;
  cases.push_back(
      gemm_case(Trans::No, Trans::Yes, 211, 203, 400, 1, true, 0.5, 7));
  cases.push_back(
      gemm_case(Trans::Yes, Trans::No, 150, 140, 128, 8, true, 1.0, 8));
  cases.push_back(
      gemm_case(Trans::No, Trans::Yes, 150, 60, 100, 20, false, 0.0, 9));
  cases.push_back(syrk_case(Trans::No, 260, 600, 1, 0.5, 10));
  cases.push_back(syrk_case(Trans::Yes, 160, 256, 8, 0.0, 11));
  return cases;
}

TEST(KernelDispatch, PortableRunsEverywhereAndIsNeverAboveTheBest) {
  EXPECT_TRUE(blas::detail::kernel_path_supported(KernelPath::Portable));
  const KernelPath best = blas::detail::best_kernel_path();
  EXPECT_TRUE(blas::detail::kernel_path_supported(best));
  for (KernelPath p : kAllPaths) {
    if (blas::detail::kernel_path_supported(p)) {
      EXPECT_LE(static_cast<int>(p), static_cast<int>(best)) << path_name(p);
    }
  }
}

TEST(KernelDispatch, SimdPathsAgreeBitwise) {
  if (!blas::detail::kernel_path_supported(KernelPath::Avx2) ||
      !blas::detail::kernel_path_supported(KernelPath::Avx512)) {
    GTEST_SKIP() << "needs both AVX2+FMA and AVX-512F";
  }
  for (const EngineCase& ec : ragged_cases()) {
    const auto c2 = ec.run(KernelPath::Avx2);
    const auto c512 = ec.run(KernelPath::Avx512);
    EXPECT_EQ(testing::max_diff(c2.data(), c512.data(), c2.size()), 0.0)
        << ec.name;
  }
}

TEST(KernelDispatch, SimdPathsWithinFmaRoundingOfPortable) {
  // Per element, FMA drops one rounding per product: over k products the
  // two sums part by at most about 2*k*u*sum|a||b| before alpha, plus a
  // rounding of the beta*C + alpha*acc write-back.
  constexpr double u = 0x1.0p-53;
  bool ran = false;
  for (KernelPath p : {KernelPath::Avx2, KernelPath::Avx512}) {
    if (!blas::detail::kernel_path_supported(p)) continue;
    ran = true;
    for (const EngineCase& ec : ragged_cases()) {
      const auto ref = ec.run(KernelPath::Portable);
      const auto got = ec.run(p);
      const auto abs = ec.abs_products();
      const double k = static_cast<double>(ec.k_sum);
      std::size_t bad = 0;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        const double tol = 2.0 * k * u * abs[i] + 2.0 * u * std::fabs(ref[i]);
        if (std::fabs(got[i] - ref[i]) > tol) ++bad;
      }
      EXPECT_EQ(bad, 0u) << path_name(p) << " " << ec.name;
    }
  }
  if (!ran) GTEST_SKIP() << "no SIMD path on this CPU";
}

TEST(KernelDispatch, EachPathBitIdenticalAcrossThreadCounts) {
  for (KernelPath p : kAllPaths) {
    if (!blas::detail::kernel_path_supported(p)) continue;
    for (const EngineCase& ec : threaded_cases()) {
      blas::set_gemm_threads(1);
      const auto c1 = ec.run(p);
      for (int threads : {2, 3}) {
        blas::set_gemm_threads(threads);
        const auto ct = ec.run(p);
        EXPECT_EQ(testing::max_diff(c1.data(), ct.data(), c1.size()), 0.0)
            << path_name(p) << " threads=" << threads << " " << ec.name;
      }
    }
  }
  blas::reset_gemm_threads();
}

}  // namespace
}  // namespace ptucker
