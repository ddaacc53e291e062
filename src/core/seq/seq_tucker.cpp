#include "core/seq/seq_tucker.hpp"

#include <cmath>
#include <cstring>

#include "blas/blas.hpp"
#include "core/metrics.hpp"
#include "core/mode_order.hpp"
#include "dist/sketch.hpp"
#include "util/rng.hpp"

namespace ptucker::core::seq {

namespace {

/// One mode's factor plus the trace the drivers need: the spectrum it was
/// selected from, the energy outside the sketch subspace (randomized route
/// only; part of the eq. 3 tail), and the method that actually ran.
struct ModeFactor {
  Matrix u;
  std::vector<double> spectrum;
  double residual = 0.0;
  FactorMethod used = FactorMethod::GramEig;
};

/// Sign canonicalization matching the distributed eigenvector kernel.
void canonicalize(Matrix& u) {
  for (std::size_t j = 0; j < u.cols(); ++j) {
    double* col = u.col(j);
    std::size_t argmax = 0;
    for (std::size_t i = 1; i < u.rows(); ++i) {
      if (std::fabs(col[i]) > std::fabs(col[argmax])) argmax = i;
    }
    if (col[argmax] < 0.0) blas::scal(u.rows(), -1.0, col);
  }
}

/// Materialized mode-n unfolding (rows = jn, cols = Jhat_n). Affordable
/// sequentially; the distributed code never does this.
Matrix materialize_unfolding(const Tensor& y, int mode) {
  const tensor::UnfoldShape s = tensor::unfold_shape(y.dims(), mode);
  Matrix unf(y.dim(mode), s.left * s.right);
  for (std::size_t r = 0; r < s.right; ++r) {
    for (std::size_t m = 0; m < s.mid; ++m) {
      for (std::size_t l = 0; l < s.left; ++l) {
        unf(m, l + r * s.left) = y[l + m * s.left + r * s.left * s.mid];
      }
    }
  }
  return unf;
}

/// The test-matrix tensor W for the sketch S = Y(n) * Omega, entry at mode
/// index c and unfolding column gj equal to Omega(gj, c) — the same
/// counter-based field the distributed route evaluates blockwise, with the
/// same first-fastest column convention gj = left + right * prod(left dims).
Tensor omega_tensor(const Dims& dims, int mode, std::size_t width) {
  const util::SketchRng rng(dist::kSketchSeed, mode);
  const int order = static_cast<int>(dims.size());
  std::vector<std::size_t> stride(dims.size(), 0);
  std::size_t gl_prod = 1;
  for (int m = 0; m < mode; ++m) {
    stride[static_cast<std::size_t>(m)] = gl_prod;
    gl_prod *= dims[static_cast<std::size_t>(m)];
  }
  std::size_t gr_prod = 1;
  for (int m = mode + 1; m < order; ++m) {
    stride[static_cast<std::size_t>(m)] = gr_prod;
    gr_prod *= dims[static_cast<std::size_t>(m)];
  }
  Dims w_dims = dims;
  w_dims[static_cast<std::size_t>(mode)] = width;
  Tensor w(w_dims);
  const std::size_t um = static_cast<std::size_t>(mode);
  w.fill_from([&](std::span<const std::size_t> idx) {
    std::size_t gl = 0;
    std::size_t gr = 0;
    for (std::size_t m = 0; m < idx.size(); ++m) {
      if (m == um) continue;
      const std::size_t g = idx[m] * stride[m];
      if (static_cast<int>(m) < mode) {
        gl += g;
      } else {
        gr += g;
      }
    }
    return rng.omega(gl + gr * gl_prod, idx[um], width);
  });
  return w;
}

/// Thin QR orthonormalization of the jn x w sketch.
Matrix orthonormalize(const Matrix& s) {
  Matrix q(s.rows(), s.cols());
  Matrix r(s.cols(), s.cols());
  la::qr_thin(s.data(), s.rows(), s.cols(), s.rows(), q.data(), q.rows(),
              r.data(), r.rows());
  return q;
}

/// The sequential randomized route, mirroring dist::factor_via_sketch:
/// sketch, thin QR, q power iterations, projection, small SVD. Returns an
/// empty u with used == GramEig when the eps-driven selection cannot
/// certify the eq. 3 budget (residual alone exceeds it) — the caller falls
/// back and records the downgrade.
ModeFactor randomized_factor(const Tensor& y, int mode, std::size_t fixed_rank,
                             double tail_threshold) {
  const std::size_t jn = y.dim(mode);
  const std::size_t jhat = tensor::prod_except(y.dims(), mode);
  const std::size_t width =
      std::min(dist::sketch_width(jn, std::min(fixed_rank, jn)),
               std::max<std::size_t>(1, jhat));

  const Tensor omega = omega_tensor(y.dims(), mode, width);
  Matrix q = orthonormalize(tensor::local_cross_gram(y, omega, mode));
  for (int pass = 0; pass < dist::kSketchPowerIterations; ++pass) {
    const Tensor z = tensor::local_ttm(y, q.transposed(), mode);
    q = orthonormalize(tensor::local_cross_gram(y, z, mode));
  }

  // B = Q^T Y(n) is the mode-n unfolding of Z = Y x_n Q^T; its left SVD
  // (via QR of B^T + small Jacobi SVD, the same math as the TSQR tree) is
  // the sketch spectrum and the inner vectors U_B.
  const Tensor z = tensor::local_ttm(y, q.transposed(), mode);
  const Matrix b = materialize_unfolding(z, mode);
  const la::LeftSvd svd = la::left_svd_via_qr(b.data(), width, b.cols(), width);

  ModeFactor out;
  out.used = FactorMethod::Randomized;
  out.spectrum.resize(width);
  double captured = 0.0;
  for (std::size_t i = 0; i < width; ++i) {
    out.spectrum[i] = svd.singular_values[i] * svd.singular_values[i];
    captured += out.spectrum[i];
  }
  out.residual = std::max(0.0, y.norm_squared() - captured);

  std::size_t rank;
  if (fixed_rank > 0) {
    rank = std::min(fixed_rank, width);
  } else if (out.residual <= tail_threshold) {
    rank = dist::select_rank_by_tail(out.spectrum,
                                     tail_threshold - out.residual);
  } else {
    out.used = FactorMethod::GramEig;  // cannot certify: caller falls back
    return out;
  }

  Matrix ub(width, rank);
  std::memcpy(ub.data(), svd.u.data(), width * rank * sizeof(double));
  out.u = Matrix::multiply(q, false, ub, false);
  canonicalize(out.u);
  return out;
}

/// Leading left singular subspace of the mode-n unfolding of y, with rank
/// chosen by tail threshold or fixed. `used` records the method that
/// actually ran; when it differs from \p method the caller records a
/// downgrade (the sketch eps fallback).
ModeFactor leading_factor(const Tensor& y, int mode, FactorMethod method,
                          std::size_t fixed_rank, double tail_threshold) {
  if (method == FactorMethod::Randomized) {
    ModeFactor out = randomized_factor(y, mode, fixed_rank, tail_threshold);
    if (out.used == FactorMethod::Randomized) return out;
  }

  const std::size_t jn = y.dim(mode);
  ModeFactor out;
  const Matrix gram = tensor::local_gram(y, mode);
  la::SymEig eig = la::eig_sym(gram.data(), jn, jn);
  out.spectrum = std::move(eig.values);
  const std::size_t rank =
      fixed_rank > 0
          ? std::min(fixed_rank, jn)
          : dist::select_rank_by_tail(out.spectrum, tail_threshold);
  // The leading eigenvectors are the first rank (contiguous) columns.
  out.u = Matrix(jn, rank);
  blas::copy(jn * rank, eig.vectors.data(), out.u.data());
  canonicalize(out.u);
  return out;
}

}  // namespace

double SeqTucker::compression_ratio() const {
  Dims dims(factors.size());
  Dims ranks(factors.size());
  for (std::size_t n = 0; n < factors.size(); ++n) {
    dims[n] = factors[n].rows();
    ranks[n] = factors[n].cols();
  }
  return core::compression_ratio(dims, ranks);
}

SeqResult seq_st_hosvd(const Tensor& x, const SeqOptions& options) {
  const int order = x.order();
  SeqResult result;
  result.norm_x = x.norm();
  const double norm_sq = result.norm_x * result.norm_x;
  const double tail_threshold =
      options.epsilon * options.epsilon * norm_sq / static_cast<double>(order);
  result.mode_order_used = resolve_mode_order(order, options.mode_order);
  result.mode_eigenvalues.resize(static_cast<std::size_t>(order));
  result.mode_methods.assign(static_cast<std::size_t>(order), options.method);
  result.tucker.factors.resize(static_cast<std::size_t>(order));

  Tensor y = x;
  double tail_total = 0.0;
  for (int n : result.mode_order_used) {
    const std::size_t fixed =
        options.fixed_ranks.empty()
            ? 0
            : options.fixed_ranks[static_cast<std::size_t>(n)];
    ModeFactor factor =
        leading_factor(y, n, options.method, fixed, tail_threshold);
    if (factor.used != options.method) {
      result.downgrades.push_back(
          {n, options.method, factor.used,
           "sketch residual exceeds the eq. 3 per-mode budget"});
    }
    result.mode_methods[static_cast<std::size_t>(n)] = factor.used;
    tail_total += factor.residual;
    for (std::size_t i = factor.u.cols(); i < factor.spectrum.size(); ++i) {
      tail_total += std::max(0.0, factor.spectrum[i]);
    }
    result.mode_eigenvalues[static_cast<std::size_t>(n)] =
        std::move(factor.spectrum);
    y = tensor::local_ttm(y, factor.u.transposed(), n);
    result.tucker.factors[static_cast<std::size_t>(n)] = std::move(factor.u);
  }
  result.tucker.core = std::move(y);
  result.error_bound =
      result.norm_x > 0.0 ? std::sqrt(tail_total) / result.norm_x : 0.0;
  return result;
}

Tensor seq_reconstruct(const SeqTucker& model) {
  Tensor y = model.core;
  for (std::size_t n = 0; n < model.factors.size(); ++n) {
    y = tensor::local_ttm(y, model.factors[n], static_cast<int>(n));
  }
  return y;
}

double seq_normalized_error(const Tensor& x, const Tensor& x_tilde) {
  PT_REQUIRE(x.dims() == x_tilde.dims(), "seq error: dims mismatch");
  double diff_sq = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - x_tilde[i];
    diff_sq += d * d;
  }
  const double norm_sq = x.norm_squared();
  return norm_sq > 0.0 ? std::sqrt(diff_sq / norm_sq) : std::sqrt(diff_sq);
}

}  // namespace ptucker::core::seq
