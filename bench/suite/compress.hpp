#pragma once
/// \file compress.hpp
/// \brief compress-sp and compress-scaling: the file-to-file flow
/// PTB1 -> pario::read_dist_tensor -> core::st_hosvd -> core::save_tucker
/// (PTZ1), one op per pass over a freshly read input.
///
/// compress-sp is the paper's headline flow on a good grid (P1 = 1): an
/// eps-driven run on combustion-surrogate SP data, bound by the read and the
/// Gram/TTM kernels with almost no communication. compress-scaling is the
/// Sec. VIII synthetic setup with mode 0 split over the ranks and fixed
/// ranks under FactorMethod::Auto, which sketches mode 0 — there the mps,
/// sketch and cost-model layers carry the load.

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/metrics.hpp"
#include "core/reconstruct.hpp"
#include "core/st_hosvd.hpp"
#include "core/tucker_io.hpp"
#include "costmodel/tucker_model.hpp"
#include "data/combustion.hpp"
#include "data/synthetic.hpp"
#include "dist/gram.hpp"
#include "dist/grid.hpp"
#include "mps/runtime.hpp"
#include "pario/block_file.hpp"
#include "util/rng.hpp"

namespace ptucker::bench::suite {

/// The SP field every compress-sp seed shuffles (see shuffle_whole_modes).
inline constexpr std::uint64_t kSpFieldSeed = 42;

/// \p x with the indices of every mode its grid leaves whole (extent 1)
/// permuted by \p seed, the same permutation on every rank. Permuting a
/// mode's indices leaves its Gram spectrum unchanged, so every seed needs
/// the same eps-driven ranks and work while every byte of the input moves.
[[nodiscard]] inline dist::DistTensor shuffle_whole_modes(
    const dist::DistTensor& x, std::uint64_t seed) {
  const tensor::Tensor& in = x.local();
  const int order = x.order();
  std::vector<std::vector<std::size_t>> perm(static_cast<std::size_t>(order));
  for (int n = 0; n < order; ++n) {
    std::vector<std::size_t>& p = perm[static_cast<std::size_t>(n)];
    p.resize(in.dim(n));
    std::iota(p.begin(), p.end(), std::size_t{0});
    if (x.grid().extent(n) != 1) continue;
    const std::uint64_t base = util::splitmix64(seed ^ (0x5eedull + 977u * n));
    for (std::size_t i = p.size(); i-- > 1;) {
      std::swap(p[i], p[util::splitmix64(base + i) % (i + 1)]);
    }
  }
  dist::DistTensor y(x.grid_ptr(), x.global_dims());
  std::vector<std::size_t> idx(static_cast<std::size_t>(order), 0);
  for (std::size_t i = 0; i < in.size(); ++i) {
    std::size_t j = 0;
    std::size_t stride = 1;
    for (int n = 0; n < order; ++n) {
      const auto m = static_cast<std::size_t>(n);
      j += perm[m][idx[m]] * stride;
      stride *= in.dim(n);
    }
    y.local().data()[j] = in.data()[i];
    for (int n = 0; n < order; ++n) {
      const auto m = static_cast<std::size_t>(n);
      if (++idx[m] < in.dim(n)) break;
      idx[m] = 0;
    }
  }
  return y;
}

struct CompressCase {
  tensor::Dims dims;
  std::vector<int> grid;
  core::SthosvdOptions opts;
  bool eps_driven = true;
  std::string source;
  /// Collective: the input tensor on \p grid, generated from the seed.
  std::function<dist::DistTensor(std::shared_ptr<mps::CartGrid>)> make;
};

[[nodiscard]] inline CompressCase compress_case(const RunOptions& o) {
  CompressCase c;
  const std::uint64_t seed = o.seed;
  if (o.workload == "compress-sp") {
    const data::CombustionSpec spec = data::combustion_spec(
        data::CombustionPreset::SP, o.smoke ? 0.03 : 0.065, kSpFieldSeed);
    c.dims = spec.dims;
    c.grid = dist::default_grid_shape(kRanks, c.dims);
    c.opts.epsilon = 1e-4;
    c.source = "combustion SP, whole modes shuffled by the seed";
    c.make = [spec, seed](std::shared_ptr<mps::CartGrid> grid) {
      return shuffle_whole_modes(data::make_combustion(std::move(grid), spec),
                                 seed);
    };
  } else {
    c.dims = o.smoke ? tensor::Dims{32, 8, 8, 8} : tensor::Dims{160, 24, 24, 24};
    const tensor::Dims ranks =
        o.smoke ? tensor::Dims{6, 3, 3, 3} : tensor::Dims{25, 6, 6, 6};
    const std::size_t fixed = o.smoke ? 4 : 16;
    c.grid = {kRanks, 1, 1, 1};
    c.opts.fixed_ranks.assign(4, fixed);
    c.opts.factor_method = core::FactorMethod::Auto;
    c.eps_driven = false;
    c.source = "low rank + 1e-6 noise";
    const tensor::Dims dims = c.dims;
    c.make = [dims, ranks, seed](std::shared_ptr<mps::CartGrid> grid) {
      return data::make_low_rank(std::move(grid), dims, ranks, seed, 1e-6);
    };
  }
  return c;
}

/// Barrier-bracketed call timing for the traced op. Every rank calls
/// time() around the same public call; the call is followed by a barrier,
/// so rank 0's barrier-to-barrier interval is the call's critical path and
/// each rank's time inside the barrier is its wait for the slowest rank.
/// Ranks are threads of one process, so the per-rank slots are plain
/// memory written by their own rank only.
class LayerClock {
 public:
  explicit LayerClock(int ranks) : wait_(static_cast<std::size_t>(ranks)) {}

  template <class F>
  void time(const mps::Comm& comm, const char* span, const std::string& key,
            F&& body) {
    const Clock::time_point t0 = Clock::now();
    {
      obs::Span s(span);
      body();
    }
    const Clock::time_point t1 = Clock::now();
    comm.barrier();
    const Clock::time_point t2 = Clock::now();
    wait_[static_cast<std::size_t>(comm.rank())] += seconds_between(t1, t2);
    if (comm.rank() == 0) seconds_[key] += seconds_between(t0, t2);
  }

  /// Rank 0's accumulated seconds for \p key (0 when never timed).
  [[nodiscard]] double seconds(const std::string& key) const {
    const auto it = seconds_.find(key);
    return it == seconds_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double total() const {
    double s = 0.0;
    for (const auto& [k, v] : seconds_) s += v;
    return s;
  }
  /// The slowest rank's summed barrier wait: the critical-path proxy.
  [[nodiscard]] double barrier_wait() const {
    return *std::max_element(wait_.begin(), wait_.end());
  }

 private:
  std::map<std::string, double> seconds_;  // written by rank 0 only
  std::vector<double> wait_;               // slot r written by rank r only
};

/// What one op's ST-HOSVD chose, as rank 0 saw it.
struct CompressOutcome {
  double bound = -1.0;
  tensor::Dims core_dims;
  std::vector<int> mode_order;
  std::vector<core::FactorRoute> routes;
};

/// Cost-model flops of the Gram and truncation-TTM calls of one ST-HOSVD,
/// summed over ranks.
struct KernelFlops {
  double gram = 0.0;
  double ttm = 0.0;
};

[[nodiscard]] inline KernelFlops kernel_flops(const CompressCase& c,
                                              const CompressOutcome& r) {
  KernelFlops f;
  tensor::Dims dims = c.dims;
  for (const int n : r.mode_order) {
    const auto m = static_cast<std::size_t>(n);
    if (r.routes[m] == core::FactorRoute::Gram) {
      f.gram += kRanks * costmodel::gram_cost(dims, n, c.grid,
                                              dist::auto_gram_prefers_symmetric(
                                                  c.grid[m]))
                             .flops;
    }
    f.ttm += kRanks * costmodel::ttm_cost(dims, r.core_dims[m], n, c.grid).flops;
    dims[m] = r.core_dims[m];
  }
  return f;
}

inline void run_compress(const RunOptions& o, Result& res) {
  const CompressCase c = compress_case(o);
  const std::string dir = o.workdir + "/compress";
  const std::string input = dir + "/input.ptb";
  const std::string model = dir + "/model.ptz";
  const double input_mb =
      static_cast<double>(tensor::prod(c.dims)) * sizeof(double) / 1e6;
  res.config("dims", shape_text(c.dims));
  res.config("grid", shape_text(c.grid));
  res.config("source", c.source);
  res.config("selection", c.eps_driven ? "eps 1e-4" : "fixed ranks, Auto");

  mps::Runtime rt(kRanks);
  const auto setup = [&](const std::string& d) {
    rt.run([&](mps::Comm& comm) {
      pario::write_dist_tensor(d + "/input.ptb",
                               c.make(dist::make_grid(comm, c.grid)));
    });
  };
  std::vector<double> setups{time_setup(dir, setup)};

  // One op: grid, read, compress, save; returns its wall seconds. With a
  // LayerClock the three calls are timed between barriers.
  CompressOutcome last;
  const auto op = [&](LayerClock* lc) {
    const Clock::time_point t0 = Clock::now();
    rt.run([&](mps::Comm& comm) {
      const auto call = [&](const char* span, const char* key, auto&& body) {
        if (lc != nullptr) {
          lc->time(comm, span, key, body);
        } else {
          body();
        }
      };
      const auto grid = dist::make_grid(comm, c.grid);
      dist::DistTensor x;
      call("bench.read", "pario.read",
           [&] { x = pario::read_dist_tensor(grid, input); });
      core::SthosvdResult r;
      call("bench.sthosvd", "core.sthosvd",
           [&] { r = core::st_hosvd(x, c.opts); });
      call("bench.save", "pario.save",
           [&] { core::save_tucker(model, r.tucker); });
      if (comm.rank() == 0) {
        last = {r.error_bound, r.tucker.core_dims(), r.mode_order_used,
                r.mode_routes};
      }
    });
    return seconds_between(t0, Clock::now());
  };

  // Warm-up, which also counts one op's messages and I/O.
  rt.reset_stats();
  const IoCounters io0 = IoCounters::now();
  op(nullptr);
  const mps::CommStats comm_per_op = rt.max_stats();
  const IoCounters io_per_op = IoCounters::now() - io0;
  const CompressOutcome first = last;
  const std::string golden = read_file(model);

  const auto run_block = [&](Block& b, double secs) {
    const Clock::time_point t0 = Clock::now();
    do {
      const double s = op(nullptr);
      b.op_s.push_back(s);
      b.busy_s += s;
      b.mb += input_mb;
      res.op((!c.eps_driven || last.bound <= c.opts.epsilon * (1.0 + 1e-12)) &&
                 last.bound == first.bound && last.core_dims == first.core_dims,
             "compress op: error bound above eps or not reproducible");
    } while (seconds_between(t0, Clock::now()) < secs);
  };
  const std::vector<Block> blocks =
      timed_phase(o.seconds, o.workdir, setups, run_block, setup);
  res.samples("setup_s", setups);

  if (!o.traced()) {
    res.set("setup_s", median_of(setups));
    report_blocks(res, blocks);
    res.set("peak_rss_mb", peak_rss_mb());
    res.set("compression_ratio", compression_ratio(input_mb * 1e6, model));
  } else {
    // Traced op: the read, compress and save calls between barriers, the
    // kernels from st_hosvd's own spans.
    LayerClock lc(kRanks);
    obs::TraceSession::start(1 << 16);
    const double traced_s = op(&lc);
    obs::TraceSession::stop();
    obs::TraceSession::write_chrome_json(o.trace_path);
    const SpanTotals spans;
    res.op(read_file(model) == golden,
           "traced op's model differs from the untraced ops'");

    const double read_s = lc.seconds("pario.read");
    const double sthosvd_s = lc.seconds("core.sthosvd");
    res.set("pario.read_s", read_s);
    res.set("pario.read_mb_s",
            ratio(static_cast<double>(std::filesystem::file_size(input)) / 1e6,
                  read_s));
    res.set("pario.save_s", lc.seconds("pario.save"));
    res.set("pario.fsyncs", static_cast<double>(io_per_op.fsyncs));
    res.set("pario.write_mb", static_cast<double>(io_per_op.write_bytes) / 1e6);
    res.set("pario.file_opens", static_cast<double>(io_per_op.file_opens));
    res.set("core.sthosvd_s", sthosvd_s);
    for (int n = 0; n < static_cast<int>(c.dims.size()); ++n) {
      const std::string m = ".mode" + std::to_string(n);
      res.set("dist.gram_s" + m, spans.seconds({"Gram"}, n));
      res.set("dist.ttm_s" + m, spans.seconds({"TTM"}, n));
    }
    res.set("dist.evecs_s", spans.seconds({"Evecs"}));
    res.set("dist.tsqr_s", spans.seconds({"TSQR"}));
    res.set("dist.sketch_s", spans.seconds({"Sketch"}));
    const KernelFlops flops = kernel_flops(c, last);
    res.set("blas.gram_gflops", ratio(flops.gram / 1e9, spans.seconds({"Gram"})));
    res.set("blas.ttm_gflops", ratio(flops.ttm / 1e9, spans.seconds({"TTM"})));
    report_mps(res, comm_per_op, 1.0);
    res.set("mps.barrier_wait_s", lc.barrier_wait());
    std::vector<int> natural(c.dims.size());
    std::iota(natural.begin(), natural.end(), 0);
    const double predicted = costmodel::Machine{}.seconds(
        costmodel::sthosvd_cost(c.dims, first.core_dims, c.grid, natural));
    res.set("costmodel.predicted_s", predicted);
    res.set("costmodel.drift", ratio(sthosvd_s, predicted));
    res.set("bench.unattributed_s", traced_s - lc.total());
    res.set("bench.trace_overhead_pct",
            100.0 * (traced_s / median_of(all_ops(blocks)) - 1.0));
  }

  // eq. 3 end to end: reload the saved model, reconstruct, compare.
  double err = -1.0;
  tensor::Dims loaded_dims;
  rt.run([&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, c.grid);
    const core::TuckerTensor m = core::load_tucker(model, grid);
    const dist::DistTensor xt = core::reconstruct(m);
    const dist::DistTensor x = pario::read_dist_tensor(grid, input);
    const double e = core::normalized_error(x, xt);
    if (comm.rank() == 0) {
      err = e;
      loaded_dims = m.core_dims();
    }
  });
  // The bound is a sum of Gram eigenvalue tails, each exact only to about
  // Jn * u * ||X||^2 (backward-stable eigensolver), so the comparison
  // allows that floor: N modes x Jmax^2 x u in squared relative error.
  const double jmax =
      static_cast<double>(*std::max_element(c.dims.begin(), c.dims.end()));
  const double floor_sq = static_cast<double>(c.dims.size()) * jmax * jmax *
                          std::numeric_limits<double>::epsilon();
  res.op(loaded_dims == first.core_dims &&
             err * err <= first.bound * first.bound * (1.0 + 1e-9) + floor_sq,
         "reloaded model's error exceeds its eq. 3 bound");
  res.config("core_dims", shape_text(first.core_dims));
}

}  // namespace ptucker::bench::suite
