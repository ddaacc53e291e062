/// \file ablate_ttm_paths.cpp
/// \brief TTM ablation of the Sec. V-B design choice: the paper's blocked
/// Alg. 3 (Pn reduces, bounded temporaries) vs the single-multiply +
/// reduce-scatter fast path (fewer messages, larger temporary), sweeping the
/// output extent K across the K = Jn/Pn threshold the paper uses to switch.

#include "bench_common.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "dist/ttm.hpp"
#include "util/cli.hpp"

using namespace ptucker;

int main(int argc, char** argv) {
  util::ArgParser args("ablate_ttm_paths",
                       "blocked Alg. 3 vs reduce-scatter TTM");
  args.add_int("dim", 64, "tensor extent per mode");
  args.add_int("ranks", 8, "number of (thread) ranks");
  args.parse(argc, argv);

  const std::size_t dim = static_cast<std::size_t>(args.get_int("dim"));
  const int p = static_cast<int>(args.get_int("ranks"));
  const int reps = 3;

  const tensor::Dims dims{dim, dim, dim};
  const std::vector<int> shape{2, 2, 2};
  PT_REQUIRE(p == 8, "ablation uses a fixed 2x2x2 grid (8 ranks)");

  bench::header("Ablation: TTM paths",
                bench::dims_name(dims) + " x_0 M, K sweep on a 2x2x2 grid");

  util::Table table({"K", "blocked(s)", "blocked words/rank", "rs(s)",
                     "rs words/rank", "auto picks"});
  for (std::size_t k : {dim / 16, dim / 8, dim / 4, dim / 2, dim}) {
    if (k == 0) continue;
    double t_blocked = 0.0;
    double t_rs = 0.0;
    double w_blocked = 0.0;
    double w_rs = 0.0;
    mps::Runtime rt(p);
    std::vector<dist::DistTensor> xs(static_cast<std::size_t>(p));
    rt.run([&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, shape);
      xs[static_cast<std::size_t>(comm.rank())] = data::make_low_rank(
          grid, dims, tensor::Dims{8, 8, 8}, 3, 0.01);
    });
    const tensor::Matrix m = tensor::Matrix::randn(k, dim, 7);

    rt.reset_stats();
    rt.run([&](mps::Comm& comm) {
      auto& x = xs[static_cast<std::size_t>(comm.rank())];
      const double t = bench::time_region(comm, [&] {
        for (int rep = 0; rep < reps; ++rep) {
          (void)dist::ttm(x, m, 0, dist::TtmAlgo::Blocked);
        }
      });
      if (comm.rank() == 0) t_blocked = t / reps;
    });
    w_blocked = rt.max_stats().words_sent() / reps;

    rt.reset_stats();
    rt.run([&](mps::Comm& comm) {
      auto& x = xs[static_cast<std::size_t>(comm.rank())];
      const double t = bench::time_region(comm, [&] {
        for (int rep = 0; rep < reps; ++rep) {
          (void)dist::ttm(x, m, 0, dist::TtmAlgo::ReduceScatter);
        }
      });
      if (comm.rank() == 0) t_rs = t / reps;
    });
    w_rs = rt.max_stats().words_sent() / reps;

    const bool auto_rs = k * 2 <= dim;  // the Auto criterion for Pn = 2
    table.add_row({std::to_string(k), util::Table::fmt(t_blocked, 4),
                   util::Table::fmt(w_blocked, 0), util::Table::fmt(t_rs, 4),
                   util::Table::fmt(w_rs, 0),
                   auto_rs ? "reduce-scatter" : "blocked"});
  }
  std::printf("%s", table.str().c_str());
  bench::paper_note(
      "Sec. V-B: when K < Jn/Pn the unblocked reduce-scatter path avoids "
      "the Pn-round latency at no bandwidth/compute penalty; the blocked "
      "path bounds temporary memory when K is large.");
  return 0;
}
