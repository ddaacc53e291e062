#include "dist/ttm.hpp"

#include "mps/collectives.hpp"

namespace ptucker::dist {

namespace {

/// Blocked Alg. 3, software-pipelined: Pn rounds; round l multiplies by the
/// l-th row block of M and binomial-reduces the partial to the rank owning
/// output block l. The reduce is initiated nonblocking and completed only
/// after round l+1's local multiply, so round l's tree traffic drains while
/// the next partial is being computed. ireduce captures its input at
/// initiation, so the partial buffer is immediately reusable and a single
/// buffer pipelines arbitrarily deep.
void ttm_blocked(const DistTensor& x, const tensor::Matrix& m_cols, int mode,
                 DistTensor& z) {
  const mps::CartGrid& grid = x.grid();
  const mps::Comm& col_comm = grid.mode_comm(mode);
  const int pn = grid.extent(mode);
  const int c = grid.coord(mode);

  tensor::Dims partial_dims = x.local().dims();
  tensor::Tensor partial;  // reused across rounds: the batched local TTM
                           // overwrites (beta = 0), so equal-sized blocks —
                           // the common divisible-grid case — skip the
                           // re-allocation and re-zeroing of J/P doubles
  mps::CollectiveHandle inflight;  // round l-1's reduce
  for (int l = 0; l < pn; ++l) {
    const util::Range out_block = z.mode_range_of(mode, l);
    const tensor::Matrix m_block = m_cols.row_block(out_block);
    partial_dims[static_cast<std::size_t>(mode)] = out_block.size();
    if (partial.dims() != partial_dims) partial = tensor::Tensor(partial_dims);
    tensor::local_ttm_into(x.local(), m_block, mode, partial);
    mps::CollectiveHandle h =
        mps::ireduce(col_comm, std::span<const double>(partial.span()),
                     c == l ? std::span<double>(z.local().span())
                            : std::span<double>(),
                     l);
    inflight.wait();
    inflight = std::move(h);
  }
  inflight.wait();
}

}  // namespace

DistTensor ttm(const DistTensor& x, const tensor::Matrix& m, int mode) {
  PT_REQUIRE(mode >= 0 && mode < x.order(), "ttm: mode out of range");
  const std::size_t jn = x.global_dim(mode);
  PT_REQUIRE(m.cols() == jn, "ttm: matrix has "
                                 << m.cols() << " columns but mode " << mode
                                 << " has global extent " << jn);

  const std::size_t k = m.rows();
  tensor::Dims out_dims = x.global_dims();
  out_dims[static_cast<std::size_t>(mode)] = k;
  DistTensor z(x.grid_ptr(), out_dims);

  const int pn = x.grid().extent(mode);
  if (pn == 1) {
    // Paper Sec. V-B: no parallel communication at all when Pn = 1.
    tensor::local_ttm_into(x.local(), m, mode, z.local());
    return z;
  }

  ttm_blocked(x, m.col_block(x.mode_range(mode)), mode, z);
  return z;
}

DistTensor ttm_chain(const DistTensor& x,
                     const std::vector<const tensor::Matrix*>& ms,
                     const std::vector<int>& order) {
  PT_REQUIRE(ms.size() == static_cast<std::size_t>(x.order()),
             "ttm_chain: need one matrix slot per mode");
  DistTensor result;
  bool first = true;
  for (int n : order) {
    PT_REQUIRE(n >= 0 && n < x.order(), "ttm_chain: mode out of range");
    const tensor::Matrix* m = ms[static_cast<std::size_t>(n)];
    PT_REQUIRE(m != nullptr, "ttm_chain: no matrix for mode " << n);
    result = ttm(first ? x : result, *m, n);
    first = false;
  }
  if (first) return x.clone();
  return result;
}

}  // namespace ptucker::dist
