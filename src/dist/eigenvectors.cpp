#include "dist/eigenvectors.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "lapack/lapack.hpp"
#include "mps/collectives.hpp"

namespace ptucker::dist {

std::size_t select_rank_by_tail(std::span<const double> eigenvalues_desc,
                                double tail_threshold) {
  const std::size_t n = eigenvalues_desc.size();
  PT_REQUIRE(n >= 1, "select_rank_by_tail: empty spectrum");
  std::size_t rank = n;
  double tail = 0.0;
  for (std::size_t r = n; r-- > 1;) {
    tail += std::max(0.0, eigenvalues_desc[r]);
    if (tail <= tail_threshold) {
      rank = r;
    } else {
      break;
    }
  }
  return rank;
}

std::size_t RankSelection::resolve(std::span<const double> spectrum) const {
  if (is_fixed) {
    return std::min<std::size_t>(std::max<std::size_t>(fixed, 1),
                                 spectrum.size());
  }
  return select_rank_by_tail(spectrum, tail);
}

namespace detail {

void canonicalize_columns(tensor::Matrix& u) {
  for (std::size_t j = 0; j < u.cols(); ++j) {
    double* col = u.col(j);
    std::size_t argmax = 0;
    for (std::size_t i = 1; i < u.rows(); ++i) {
      if (std::fabs(col[i]) > std::fabs(col[argmax])) argmax = i;
    }
    if (col[argmax] < 0.0) {
      for (std::size_t i = 0; i < u.rows(); ++i) col[i] = -col[i];
    }
  }
}

}  // namespace detail

FactorResult eigenvectors(const GramColumns& s, const mps::CartGrid& grid,
                          int mode, const RankSelection& select) {
  PT_REQUIRE(mode >= 0 && mode < grid.order(),
             "eigenvectors: mode out of range");

  const std::size_t jn = s.cols.rows();
  const int pn = grid.extent(mode);
  PT_REQUIRE(jn >= 1, "eigenvectors: empty Gram matrix");

  // Assemble the full Jn x Jn matrix: block column l (Jn * |block l| values,
  // already contiguous column-major) lands at column offset block l.lo.
  std::vector<double> full(jn * jn);
  std::vector<std::size_t> counts(static_cast<std::size_t>(pn));
  for (int l = 0; l < pn; ++l) {
    counts[static_cast<std::size_t>(l)] =
        jn * util::uniform_block(jn, static_cast<std::size_t>(pn),
                                 static_cast<std::size_t>(l))
                 .size();
  }
  mps::allgatherv(grid.mode_comm(mode),
                  std::span<const double>(s.cols.span()),
                  std::span<double>(full),
                  std::span<const std::size_t>(counts));

  // Redundant eigendecomposition on every rank (deterministic solver +
  // identical input => identical factors everywhere).
  const la::SymEig eig = la::eig_sym(full.data(), jn, jn);

  FactorResult result;
  result.eigenvalues = eig.values;
  result.rank = select.resolve(result.eigenvalues);
  result.u = tensor::Matrix(jn, result.rank);
  std::memcpy(result.u.data(), eig.vectors.data(),
              jn * result.rank * sizeof(double));
  detail::canonicalize_columns(result.u);
  return result;
}

}  // namespace ptucker::dist
