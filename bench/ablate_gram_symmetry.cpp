/// \file ablate_gram_symmetry.cpp
/// \brief Ablation of the Gram symmetry optimization (paper Sec. V-C and
/// the Sec. IX future-work item): the full-storage local Gram (the paper's
/// default, 2 n^2 k flops) vs the symmetry-exploiting kernel (n(n+1)k
/// flops) that dist::gram runs on the diagonal block of every ring.
///
/// Historically the symmetric variant *lost* wall-clock despite halving
/// the flops: it decomposed into NB=32 gemm calls that re-packed the same
/// panels and fed the microkernel slivers. The packed syrk_lower packs both
/// operand panels once per KC slab and skips strictly-upper micro tiles, so
/// the flop saving shows up in the measured time. The two kernels are
/// pinned bit-identical by local_kernels_test
/// (LocalKernels.GramSymMatchesGram), so the full-storage one is only this
/// bench's baseline and that test's oracle.

#include <algorithm>

#include "bench_common.hpp"
#include "blas/blas.hpp"
#include "tensor/local_kernels.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace ptucker;

int main(int argc, char** argv) {
  util::ArgParser args("ablate_gram_symmetry",
                       "full-storage vs symmetry-exploiting local Gram");
  args.add_int("dim", 96, "tensor extent per mode (3-way)");
  args.parse(argc, argv);

  const std::size_t dim = static_cast<std::size_t>(args.get_int("dim"));
  const int reps = 5;  // median reported
  const tensor::Dims dims{dim, dim, dim};
  const tensor::Tensor y = tensor::Tensor::randn(dims, 5);

  bench::header("Ablation: Gram symmetry",
                "mode-0 local Gram of " + bench::dims_name(dims));

  util::Table table({"kernel", "time(s)", "flops", "speedup"});
  double t_full = 0.0;
  for (const bool symmetric : {false, true}) {
    const auto kernel = [&] {
      return symmetric ? tensor::local_gram_sym(y, 0)
                       : tensor::local_gram(y, 0);
    };
    (void)kernel();  // warm-up (caches, packing)
    blas::reset_flop_count();
    std::vector<double> times;
    for (int rep = 0; rep < reps; ++rep) {
      util::Timer timer;
      (void)kernel();
      times.push_back(timer.seconds());
    }
    const std::uint64_t flops =
        blas::flop_count() / static_cast<std::uint64_t>(reps);
    std::nth_element(times.begin(), times.begin() + reps / 2, times.end());
    const double elapsed = times[static_cast<std::size_t>(reps / 2)];
    if (!symmetric) t_full = elapsed;
    table.add_row({symmetric ? "symmetric syrk" : "full-storage syrk",
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
