#pragma once
/// \file bench_common.hpp
/// \brief Shared helpers for the figure/table reproduction benches.
///
/// Every bench prints (a) a header identifying the paper artifact it
/// regenerates, (b) the measured rows/series, and (c) a `paper:` line
/// quoting what the paper reports, so EXPERIMENTS.md can be assembled
/// directly from bench output.

#include <cstdio>
#include <string>
#include <vector>

#include "mps/runtime.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace ptucker::bench {

inline void header(const std::string& artifact, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), what.c_str());
  std::printf("==============================================================\n");
}

inline void paper_note(const std::string& note) {
  std::printf("paper: %s\n\n", note.c_str());
}

inline std::string shape_name(const std::vector<int>& shape) {
  std::string s;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) s += "x";
    s += std::to_string(shape[i]);
  }
  return s;
}

inline std::string dims_name(const std::vector<std::size_t>& dims) {
  std::string s;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) s += "x";
    s += std::to_string(dims[i]);
  }
  return s;
}

/// Time a parallel body: barrier, run, barrier; returns the rank-0 measured
/// wall time (all ranks are synchronized around the region).
template <class Body>
double time_region(mps::Comm& comm, Body&& body) {
  comm.barrier();
  util::Timer timer;
  body();
  comm.barrier();
  return timer.seconds();
}

/// Seconds per kernel of one ST-HOSVD, the Fig. 8 stacked-bar blocks.
struct KernelSeconds {
  double gram = 0.0;
  double evecs = 0.0;
  double ttm = 0.0;
};

/// Reads st_hosvd's Gram / Evecs / TTM spans from the stopped
/// obs::TraceSession. Each block is the slowest rank's summed span seconds
/// (the bottleneck view the paper plots); all zero when tracing is
/// compiled out.
[[nodiscard]] KernelSeconds traced_kernel_seconds();

/// Estimate this machine's per-core GEMM throughput (flops/s) for the
/// %-of-peak columns (paper reports % of the Ivy Bridge 19.2 GFLOPS core
/// peak; we report % of measured single-core GEMM peak instead).
double measure_core_gemm_flops();

}  // namespace ptucker::bench
