#include "dist/gram.hpp"

#include <cstring>

#include "mps/collectives.hpp"

namespace ptucker::dist {

namespace {

constexpr int kTagGramRing = 310;

/// Copy \p block (rows x my_cols) into rows [row_lo, row_lo + rows) of the
/// assembled block column \p cols (jn x my_cols).
void fill_rows(tensor::Matrix& cols, std::size_t row_lo,
               const tensor::Matrix& block) {
  // A block with no rows may hold a null pointer, which std::memcpy
  // rejects even for zero bytes.
  if (block.rows() == 0) return;
  for (std::size_t j = 0; j < block.cols(); ++j) {
    std::memcpy(cols.col(j) + row_lo, block.col(j),
                block.rows() * sizeof(double));
  }
}

/// Local dims of the block owned by mode-coordinate \p coord (all other
/// modes as in my own block — ranks of a mode comm share those).
tensor::Dims block_dims_at(const DistTensor& x, int mode, int coord) {
  tensor::Dims dims = x.local().dims();
  dims[static_cast<std::size_t>(mode)] = x.mode_range_of(mode, coord).size();
  return dims;
}

}  // namespace

GramColumns gram(const DistTensor& x, int mode) {
  PT_REQUIRE(mode >= 0 && mode < x.order(), "gram: mode out of range");

  const std::size_t jn = x.global_dim(mode);
  const util::Range my_range = x.mode_range(mode);
  const mps::CartGrid& grid = x.grid();
  const int pn = grid.extent(mode);
  const int c = grid.coord(mode);

  tensor::Matrix cols(jn, my_range.size());

  // Diagonal block: my rows x my columns of S, from my own local block.
  fill_rows(cols, my_range.lo, tensor::local_gram_sym(x.local(), mode));

  if (pn > 1) {
    // Windowed overlap via handles: keep at most kSendWindow eager sends
    // ahead of the receives (bounding the in-flight copies of the local
    // block to O(window) per mailbox), and keep the *receive* for block k+1
    // posted while the cross-Gram of block k runs, double-buffering the
    // incoming tensors. Peer k of my schedule is (c + k) mod Pn; that peer
    // receives from me at step k of its own receive schedule, so all ranks
    // advance in lockstep and no receive can starve. Transfers of slab k+1
    // thus land during slab k's compute instead of serializing in front of
    // it.
    const mps::Comm& ring = grid.mode_comm(mode);
    constexpr int kSendWindow = 2;
    const auto send_to_peer = [&](int k) {
      mps::isend(ring, std::span<const double>(x.local().span()),
                 (c + k) % pn, kTagGramRing)
          .wait();  // eager transport: already complete at initiation
    };
    for (int k = 1; k <= std::min(pn - 1, kSendWindow); ++k) {
      send_to_peer(k);
    }
    tensor::Tensor incoming[2];
    mps::CollectiveHandle arrival[2];
    const auto post_recv = [&](int k) {
      const int src = (c - k + pn) % pn;
      tensor::Tensor& buf = incoming[k & 1];
      buf = tensor::Tensor(block_dims_at(x, mode, src));
      arrival[k & 1] =
          mps::irecv(ring, std::span<double>(buf.span()), src, kTagGramRing);
    };
    post_recv(1);
    for (int k = 1; k < pn; ++k) {
      if (k + kSendWindow < pn) send_to_peer(k + kSendWindow);
      // Next slab's transfer is in flight before this slab's compute.
      if (k + 1 < pn) post_recv(k + 1);
      arrival[k & 1].wait();
      const int src = (c - k + pn) % pn;
      const tensor::Matrix cross =
          tensor::local_cross_gram(incoming[k & 1], x.local(), mode);
      fill_rows(cols, x.mode_range_of(mode, src).lo, cross);
    }
  }

  // Sum the partial block column over the processor row (the ranks holding
  // the other unfolding-column blocks).
  mps::allreduce(grid.slice_comm(mode), cols.span());

  return GramColumns{std::move(cols), my_range};
}

}  // namespace ptucker::dist
