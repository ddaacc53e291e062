#include "bench_common.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "blas/blas.hpp"
#include "obs/trace.hpp"

namespace ptucker::bench {

KernelSeconds traced_kernel_seconds() {
  std::map<std::int32_t, KernelSeconds> per_rank;
  for (const obs::TraceEvent& e : obs::TraceSession::events()) {
    const double s = static_cast<double>(e.dur_ns) * 1e-9;
    KernelSeconds& k = per_rank[e.rank];
    if (std::strcmp(e.name, "Gram") == 0) k.gram += s;
    if (std::strcmp(e.name, "Evecs") == 0) k.evecs += s;
    if (std::strcmp(e.name, "TTM") == 0) k.ttm += s;
  }
  KernelSeconds worst;
  for (const auto& [rank, k] : per_rank) {
    worst.gram = std::max(worst.gram, k.gram);
    worst.evecs = std::max(worst.evecs, k.evecs);
    worst.ttm = std::max(worst.ttm, k.ttm);
  }
  return worst;
}

double measure_core_gemm_flops() {
  const std::size_t n = 384;
  std::vector<double> a(n * n, 1.5);
  std::vector<double> b(n * n, -0.5);
  std::vector<double> c(n * n, 0.0);
  // Warm-up.
  blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, a.data(), n,
             b.data(), n, 0.0, c.data(), n);
  util::Timer timer;
  const int reps = 3;
  for (int r = 0; r < reps; ++r) {
    blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, a.data(), n,
               b.data(), n, 0.0, c.data(), n);
  }
  const double seconds = timer.seconds();
  return 2.0 * static_cast<double>(n) * n * n * reps / seconds;
}

}  // namespace ptucker::bench
