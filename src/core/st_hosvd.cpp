#include "core/st_hosvd.hpp"

#include <cmath>

#include "core/mode_order.hpp"
#include "costmodel/tucker_model.hpp"
#include "dist/sketch.hpp"
#include "obs/trace.hpp"

namespace ptucker::core {

FactorRoute resolve_factor_route(FactorMethod method, const DistTensor& y,
                                 int mode, double epsilon,
                                 std::size_t fixed_rank) {
  switch (method) {
    case FactorMethod::GramEig:
      return FactorRoute::Gram;
    case FactorMethod::TsqrSvd:
      return FactorRoute::Tsqr;
    case FactorMethod::Randomized:
      return FactorRoute::Randomized;
    case FactorMethod::Auto: {
      // The sketch only enters the running when the posteriori eq. 3 check
      // has headroom: fixed-rank selection never falls back, and a loose
      // eps leaves slack for the sketch residual. A tight eps would
      // routinely reject the sketch and pay for both routes.
      const bool sketch_eligible =
          fixed_rank > 0 || epsilon >= dist::kSketchAutoMinEpsilon;
      if (sketch_eligible) {
        const std::size_t width =
            dist::sketch_width(y.global_dim(mode), fixed_rank);
        if (costmodel::prefer_sketch(y.global_dims(), mode, width,
                                     dist::kSketchPowerIterations,
                                     y.grid().shape())) {
          return FactorRoute::Randomized;
        }
      }
      return costmodel::prefer_tsqr(y.global_dims(), mode, y.grid().shape())
                 ? FactorRoute::Tsqr
                 : FactorRoute::Gram;
    }
  }
  return FactorRoute::Gram;
}

namespace detail {

ModeFactor factor_mode(const DistTensor& y, int n, FactorRoute route,
                       const dist::RankSelection& select) {
  ModeFactor out;
  out.route = route;
  if (route == FactorRoute::Randomized) {
    dist::SketchFactorResult sk = [&] {
      obs::Span span("Sketch", n);
      return dist::factor_via_sketch(y, n, select);
    }();
    if (sk.certified) {
      out.factor = std::move(sk.factor);
      out.residual_energy = sk.residual_energy;
      return out;
    }
    out.route = FactorRoute::Gram;
  }
  if (out.route == FactorRoute::Tsqr) {
    obs::Span span("TSQR", n);
    out.factor = dist::factor_via_tsqr(y, n, select);
  } else {
    const dist::GramColumns s = [&] {
      obs::Span span("Gram", n);
      return dist::gram(y, n);
    }();
    obs::Span span("Evecs", n);
    out.factor = dist::eigenvectors(s, y.grid(), n, select);
  }
  return out;
}

}  // namespace detail

SthosvdResult st_hosvd(const DistTensor& x, const SthosvdOptions& options) {
  const int order = x.order();
  PT_REQUIRE(options.fixed_ranks.empty() ||
                 static_cast<int>(options.fixed_ranks.size()) == order,
             "st_hosvd: fixed_ranks must have one entry per mode");
  PT_REQUIRE(options.epsilon >= 0.0, "st_hosvd: epsilon must be >= 0");

  SthosvdResult result;
  result.norm_x_sq = x.norm_squared();
  result.norm_x = std::sqrt(result.norm_x_sq);
  result.mode_eigenvalues.resize(static_cast<std::size_t>(order));
  result.mode_routes.assign(static_cast<std::size_t>(order),
                            FactorRoute::Gram);
  result.mode_order_used = resolve_mode_order(order, options.mode_order);

  // Tail threshold per mode: eps^2 ||X||^2 / N (Alg. 1 line 5).
  const double tail_threshold =
      options.epsilon * options.epsilon * result.norm_x_sq /
      static_cast<double>(order);

  result.tucker.factors.resize(static_cast<std::size_t>(order));
  // X is read in place: the first processed mode factors and truncates X
  // itself, and every later mode reads the previous TTM output. Assigning
  // the next TTM output to y frees the one before it, so X plus one working
  // tensor is the whole resident set (eq. 2).
  DistTensor y;
  const DistTensor* cur = &x;
  double tail_total = 0.0;

  for (int n : result.mode_order_used) {
    // These spans are the only per-kernel timing record: one run's trace
    // is the Fig. 8 per-mode Gram/Evecs/TTM breakdown, mode in the arg.
    // Their names and nesting are a contract that benches read.
    obs::Span span_mode("st_hosvd.mode", n);
    const std::size_t fixed_rank =
        options.fixed_ranks.empty()
            ? std::size_t{0}
            : options.fixed_ranks[static_cast<std::size_t>(n)];
    const dist::RankSelection select =
        options.fixed_ranks.empty()
            ? dist::RankSelection::threshold(tail_threshold)
            : dist::RankSelection::fixed_rank(fixed_rank);
    const FactorRoute requested = resolve_factor_route(
        options.factor_method, *cur, n, options.epsilon, fixed_rank);
    detail::ModeFactor mode_factor =
        detail::factor_mode(*cur, n, requested, select);
    if (mode_factor.route != requested) {
      result.downgrades.push_back(
          {n, requested, mode_factor.route,
           "sketch residual exceeds the eq. 3 per-mode budget"});
    }
    result.mode_routes[static_cast<std::size_t>(n)] = mode_factor.route;
    tail_total += mode_factor.residual_energy;
    dist::FactorResult& factor = mode_factor.factor;

    // Account the truncated tail toward the eq. (3) error bound.
    for (std::size_t i = factor.rank; i < factor.eigenvalues.size(); ++i) {
      tail_total += std::max(0.0, factor.eigenvalues[i]);
    }
    result.mode_eigenvalues[static_cast<std::size_t>(n)] =
        factor.eigenvalues;

    // Truncate: Y <- Y x_n U^T.
    const Matrix ut = factor.u.transposed();
    {
      obs::Span span("TTM", n);
      y = dist::ttm(*cur, ut, n);
      cur = &y;
    }
    result.tucker.factors[static_cast<std::size_t>(n)] = std::move(factor.u);
  }

  // cur still points at x only when no mode ran (an order-0 tensor).
  result.tucker.core = cur == &x ? x.clone() : std::move(y);
  result.error_bound =
      result.norm_x > 0.0 ? std::sqrt(tail_total) / result.norm_x : 0.0;
  return result;
}

}  // namespace ptucker::core
