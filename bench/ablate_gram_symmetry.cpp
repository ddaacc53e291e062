/// \file ablate_gram_symmetry.cpp
/// \brief Ablation of the Gram symmetry optimization (paper Sec. V-C and
/// the Sec. IX future-work item): full-storage syrk (the paper's default,
/// 2 n^2 k flops) vs the symmetry-exploiting kernel (n(n+1)k flops) on the
/// Pn = 1 path where the paper says symmetry is fully exploitable.
///
/// Historically the symmetric variant *lost* wall-clock despite halving
/// the flops: it decomposed into NB=32 gemm calls that re-packed the same
/// panels and fed the microkernel slivers. The packed syrk_lower packs both
/// operand panels once per KC slab and skips strictly-upper micro tiles, so
/// the flop saving now shows up in the measured time — GramAlgo::Auto
/// prefers it on short rings. The full-storage side is
/// GramAlgo::FullKernel, Auto's pick on longer rings; with P0 = 1 there
/// is no ring, so only the diagonal-block kernel differs. The two kernels'
/// Gram columns are pinned bit-identical by dist_gram_test
/// (DistGram.ExploitSymmetryBitIdenticalToFullKernel).

#include "bench_common.hpp"
#include "blas/blas.hpp"
#include "data/synthetic.hpp"
#include "dist/gram.hpp"
#include "dist/grid.hpp"
#include "util/cli.hpp"

using namespace ptucker;

int main(int argc, char** argv) {
  util::ArgParser args("ablate_gram_symmetry",
                       "full-storage vs symmetry-exploiting Gram");
  args.add_int("dim", 96, "tensor extent per mode (3-way)");
  args.add_int("ranks", 8, "number of (thread) ranks (1x8 split: Pn=1)");
  args.parse(argc, argv);

  const std::size_t dim = static_cast<std::size_t>(args.get_int("dim"));
  const int p = static_cast<int>(args.get_int("ranks"));
  const int reps = 3;
  const tensor::Dims dims{dim, dim, dim};
  const std::vector<int> shape{1, 2, 4};
  // P0 = 1: the mode-0 Gram is communication-free.

  bench::header("Ablation: Gram symmetry",
                "mode-0 Gram of " + bench::dims_name(dims) + " with P0 = 1");

  util::Table table({"kernel", "time(s)", "flops", "speedup"});
  double t_full = 0.0;
  for (auto algo : {dist::GramAlgo::FullKernel,
                    dist::GramAlgo::ExploitSymmetry}) {
    double elapsed = 0.0;
    std::uint64_t flops = 0;
    mps::run(p, [&](mps::Comm& comm) {
      auto grid = dist::make_grid(comm, shape);
      const dist::DistTensor x = data::make_low_rank(
          grid, dims, tensor::Dims{8, 8, 8}, 5, 0.01);
      (void)dist::gram(x, 0, algo);  // warm-up (caches, packing)
      comm.barrier();
      if (comm.rank() == 0) blas::reset_flop_count();
      comm.barrier();
      const double t = bench::time_region(comm, [&] {
        for (int rep = 0; rep < reps; ++rep) (void)dist::gram(x, 0, algo);
      });
      if (comm.rank() == 0) {
        elapsed = t / reps;
        flops = blas::flop_count() / static_cast<std::uint64_t>(reps);
      }
    });
    if (algo == dist::GramAlgo::FullKernel) t_full = elapsed;
    table.add_row({algo == dist::GramAlgo::FullKernel ? "full-storage syrk"
                                                      : "symmetric syrk",
                   util::Table::fmt(elapsed, 4),
                   util::Table::fmt_sci(static_cast<double>(flops), 2),
                   util::Table::fmt(t_full / elapsed, 2)});
  }
  std::printf("%s", table.str().c_str());
  bench::paper_note(
      "Sec. V-C: 'up to a factor of two could be saved by exploiting "
      "symmetry of S'. The packed syrk_lower realizes the saving at full "
      "microkernel throughput (the old NB-blocked decomposition did not); "
      "flop counts use the symmetric model n(n+1)k so GF/s columns are "
      "comparable.");
  return 0;
}
