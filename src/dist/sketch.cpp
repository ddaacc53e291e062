#include "dist/sketch.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "dist/tsqr.hpp"
#include "lapack/lapack.hpp"
#include "mps/collectives.hpp"
#include "tensor/local_kernels.hpp"
#include "util/rng.hpp"

namespace ptucker::dist {

namespace {

/// Local block of the test-matrix tensor W: dims equal y's local block with
/// mode n widened to the sketch width, entry at mode-n index c and non-n
/// local index j equal to Omega(gj, c) for the *global* unfolding column gj
/// of j. With this tensor, local_cross_gram(y.local(), W, mode) is this
/// rank's partial of S = Y(n) * Omega — same batched kernel, same
/// first-fastest column convention (gj = left + right * GL) as pack_rows.
tensor::Tensor omega_block(const DistTensor& x, int mode, std::size_t width) {
  const int order = x.order();
  const util::SketchRng rng(kSketchSeed, mode);

  tensor::Dims local_dims = x.local().dims();
  local_dims[static_cast<std::size_t>(mode)] = width;

  // Global strides of the unfolding-column composite: modes < n contribute
  // with the left product's strides, modes > n with the right product's,
  // and the full left product GL couples them (gj = gl + gr * GL).
  std::vector<std::size_t> stride(static_cast<std::size_t>(order), 0);
  std::vector<std::size_t> offset(static_cast<std::size_t>(order), 0);
  std::size_t gl_prod = 1;
  for (int m = 0; m < mode; ++m) {
    stride[static_cast<std::size_t>(m)] = gl_prod;
    gl_prod *= x.global_dim(m);
  }
  std::size_t gr_prod = 1;
  for (int m = mode + 1; m < order; ++m) {
    stride[static_cast<std::size_t>(m)] = gr_prod;
    gr_prod *= x.global_dim(m);
  }
  for (int m = 0; m < order; ++m) {
    if (m != mode) offset[static_cast<std::size_t>(m)] = x.mode_range(m).lo;
  }

  tensor::Tensor w(local_dims);
  const std::size_t um = static_cast<std::size_t>(mode);
  w.fill_from([&](std::span<const std::size_t> idx) {
    std::size_t gl = 0;
    std::size_t gr = 0;
    for (std::size_t m = 0; m < idx.size(); ++m) {
      if (m == um) continue;
      const std::size_t g = (idx[m] + offset[m]) * stride[m];
      if (static_cast<int>(m) < mode) {
        gl += g;
      } else {
        gr += g;
      }
    }
    const std::size_t gj = gl + gr * gl_prod;
    return rng.omega(gj, idx[um], width);
  });
  return w;
}

/// This rank's partial of the Jn x width product Y(n) * Z(n)^T (Z any tensor
/// matching y's local block except mode n), scattered to the rank's mode-n
/// row offset and summed over the whole grid: every rank owns a distinct
/// (mode block x non-mode block), so the full-comm allreduce assembles the
/// replicated global product.
tensor::Matrix replicated_cross_gram(const DistTensor& x,
                                     const tensor::Tensor& z, int mode) {
  const std::size_t jn = x.global_dim(mode);
  const std::size_t width = z.dim(mode);
  const tensor::Matrix partial = tensor::local_cross_gram(x.local(), z, mode);
  tensor::Matrix s(jn, width);
  const util::Range rows = x.mode_range(mode);
  for (std::size_t j = 0; j < width; ++j) {
    std::memcpy(s.col(j) + rows.lo, partial.col(j),
                rows.size() * sizeof(double));
  }
  mps::allreduce(x.comm(), s.span());
  return s;
}

/// Orthonormalize the replicated Jn x w sketch in place (thin QR, redundant
/// on every rank — S is identical grid-wide after the allreduce).
tensor::Matrix orthonormalize(const tensor::Matrix& s) {
  tensor::Matrix q(s.rows(), s.cols());
  tensor::Matrix r(s.cols(), s.cols());
  la::qr_thin(s.data(), s.rows(), s.cols(), s.rows(), q.data(), q.rows(),
              r.data(), r.rows());
  return q;
}

/// Power-iteration cross-Gram S = Y(n) Z(n)^T with the processor-column
/// allgatherv of Z's mode-n blocks overlapped against compute. The TTM
/// re-blocks mode n (extent w) over the Pn ranks of the processor column;
/// every output column of S belongs to exactly one source block, so the
/// columns owned by this rank's own block are computed from z.local()
/// while the ring carries the other blocks, and the remaining columns are
/// computed per received piece after completion. Each output element is the
/// same independent dot product the monolithic full-width cross-Gram
/// evaluates, so the split is bitwise identical to gathering first.
tensor::Matrix overlapped_power_cross_gram(const DistTensor& y,
                                           const DistTensor& z, int mode) {
  const mps::Comm& mcomm = z.grid().mode_comm(mode);
  const int pn = mcomm.size();
  const int c = z.grid().coord(mode);
  const std::size_t width = z.global_dim(mode);
  const std::size_t jn = y.global_dim(mode);

  tensor::Dims piece_dims = z.local().dims();
  std::size_t base = 1;
  for (int m = 0; m < z.order(); ++m) {
    if (m != mode) base *= piece_dims[static_cast<std::size_t>(m)];
  }

  std::vector<std::size_t> counts(static_cast<std::size_t>(pn));
  for (int q = 0; q < pn; ++q) {
    counts[static_cast<std::size_t>(q)] = base * z.mode_range_of(mode, q).size();
  }
  std::vector<double> all(base * width);
  mps::CollectiveHandle gathered =
      mps::iallgatherv(mcomm, std::span<const double>(z.local().span()),
                       std::span<double>(all),
                       std::span<const std::size_t>(counts));

  tensor::Matrix s(jn, width);
  const util::Range rows = y.mode_range(mode);
  const auto emit_columns = [&](const tensor::Tensor& piece,
                                std::size_t col_lo) {
    const tensor::Matrix part = tensor::local_cross_gram(y.local(), piece, mode);
    for (std::size_t j = 0; j < part.cols(); ++j) {
      std::memcpy(s.col(col_lo + j) + rows.lo, part.col(j),
                  rows.size() * sizeof(double));
    }
  };

  // My own block's columns need no communication: compute them while the
  // ring is in flight.
  if (z.mode_range(mode).size() > 0) {
    emit_columns(z.local(), z.mode_range(mode).lo);
  }
  gathered.wait();

  std::size_t off = 0;
  for (int q = 0; q < pn; ++q) {
    const util::Range block = z.mode_range_of(mode, q);
    if (block.size() == 0) continue;
    if (q == c) {
      off += counts[static_cast<std::size_t>(q)];
      continue;
    }
    piece_dims[static_cast<std::size_t>(mode)] = block.size();
    tensor::Tensor piece(piece_dims);
    std::memcpy(piece.data(), all.data() + off,
                piece.size() * sizeof(double));
    emit_columns(piece, block.lo);
    off += piece.size();
  }

  mps::allreduce(y.comm(), s.span());
  return s;
}

}  // namespace

std::size_t sketch_width(std::size_t jn, std::size_t fixed_rank) {
  if (jn == 0) return 0;
  const std::size_t target =
      fixed_rank > 0 ? fixed_rank : std::max<std::size_t>(1, jn / 4);
  return std::min(jn, target + kSketchOversample);
}

SketchFactorResult factor_via_sketch(const DistTensor& y, int mode,
                                     const RankSelection& select) {
  PT_REQUIRE(mode >= 0 && mode < y.order(), "sketch: mode out of range");
  const std::size_t jn = y.global_dim(mode);
  const std::size_t jhat =
      tensor::prod_except(y.global_dims(), mode);
  const std::size_t fixed =
      select.is_fixed ? std::min(select.fixed, jn) : std::size_t{0};
  // Wider than the number of unfolding columns adds only zero directions.
  const std::size_t width =
      std::min(sketch_width(jn, fixed), std::max<std::size_t>(1, jhat));

  // Sketch + orthonormalize: S = Y(n) Omega, Q = thin-QR(S).
  tensor::Matrix q = orthonormalize(replicated_cross_gram(
      y, omega_block(y, mode, width), mode));

  // Power iterations: S <- Y(n) Y(n)^T Q via one TTM (Z = Y x_n Q^T, so
  // Z(n) = Q^T Y(n)) and one sketch-width cross-Gram with the
  // processor-column allgatherv hidden under the own-block columns, then
  // re-orthonormalize.
  for (int pass = 0; pass < kSketchPowerIterations; ++pass) {
    const DistTensor z = ttm(y, q.transposed(), mode);
    q = orthonormalize(overlapped_power_cross_gram(y, z, mode));
  }

  // Project and take the small spectrum: Z = Y x_n Q^T is the projected
  // tensor whose mode-n unfolding is B = Q^T Y(n); the general TSQR tree on
  // Z (w-row unfolding — cheap) plus the redundant SVD of R^T yields
  // sigma_i(B) and the left vectors U_B, exactly as factor_via_tsqr does for
  // the full unfolding.
  const DistTensor z = ttm(y, q.transposed(), mode);
  const tensor::Matrix r = tsqr_r_factor(z, mode);

  const tensor::Matrix rt = r.transposed();
  const la::JacobiSvd svd = la::jacobi_svd(rt.data(), width, width, width);

  SketchFactorResult out;
  out.factor.eigenvalues.resize(width);
  double captured = 0.0;
  for (std::size_t i = 0; i < width; ++i) {
    out.factor.eigenvalues[i] = svd.sigma[i] * svd.sigma[i];
    captured += out.factor.eigenvalues[i];
  }
  // Energy outside the sketch subspace: ||Y||^2 - ||Q^T Y(n)||^2. Exact, so
  // charging it to the eq. 3 tail certifies the bound for the truncation
  // onto any leading columns of U.
  out.residual_energy = std::max(0.0, y.norm_squared() - captured);

  if (select.is_fixed) {
    out.factor.rank = select.resolve(out.factor.eigenvalues);
    out.certified = true;
  } else if (out.residual_energy <= select.tail) {
    out.factor.rank = select_rank_by_tail(out.factor.eigenvalues,
                                          select.tail - out.residual_energy);
    out.certified = true;
  } else {
    // Even keeping the whole sketch overshoots the per-mode budget: the
    // subspace cannot certify eq. 3. Return the best available factor
    // uncertified; drivers fall back to an exact route.
    out.factor.rank = width;
    out.certified = false;
  }

  // U = Q * U_B[:, :rank] (Jn x rank), then the shared sign convention.
  tensor::Matrix ub(width, out.factor.rank);
  std::memcpy(ub.data(), svd.u.data(),
              width * out.factor.rank * sizeof(double));
  out.factor.u = tensor::Matrix::multiply(q, false, ub, false);
  detail::canonicalize_columns(out.factor.u);
  return out;
}

}  // namespace ptucker::dist
