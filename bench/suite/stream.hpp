#pragma once
/// \file stream.hpp
/// \brief stream-append: the write side of the PTA1 archive. A directory of
/// seeded per-step PTB1 dumps is compressed window by window into a fresh
/// archive by core::StreamingCompressor; one op is one window. Small windows
/// make the per-window fixed costs dominate: file opens, headers,
/// normalization, small-kernel dispatch and the commit fsyncs.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/streaming.hpp"
#include "data/synthetic.hpp"
#include "dist/grid.hpp"
#include "mps/runtime.hpp"
#include "pario/archive_io.hpp"
#include "pario/block_file.hpp"

namespace ptucker::bench::suite {

struct StreamCase {
  tensor::Dims step_dims;
  std::size_t steps = 0;
  std::size_t window = 4;
  int species_mode = 2;
  double eps = 1e-3;
  std::uint64_t seed = 1;
  /// Tucker ranks of the space x species x time field the steps slice.
  /// eps-driven selection recovers them on every seed, so every seed
  /// archives models of the same shape and the serve workloads do the same
  /// work per query.
  tensor::Dims field_ranks;

  [[nodiscard]] tensor::Dims field_dims() const {
    tensor::Dims d = step_dims;
    d.push_back(steps);
    return d;
  }
  [[nodiscard]] std::size_t windows() const {
    return (steps + window - 1) / window;
  }
  [[nodiscard]] double step_bytes() const {
    return static_cast<double>(tensor::prod(step_dims)) * sizeof(double);
  }
};

[[nodiscard]] inline StreamCase stream_case(const RunOptions& o) {
  StreamCase c;
  c.step_dims = o.smoke ? tensor::Dims{16, 16, 4} : tensor::Dims{64, 64, 16};
  c.steps = o.smoke ? 16 : 64;
  c.field_ranks =
      o.smoke ? tensor::Dims{4, 4, 2, 4} : tensor::Dims{16, 16, 8, 12};
  c.seed = o.seed;
  return c;
}

[[nodiscard]] inline core::StreamingOptions stream_options(
    const StreamCase& c) {
  core::StreamingOptions opts;
  opts.sthosvd.epsilon = c.eps;
  opts.window = c.window;
  opts.species_mode = c.species_mode;
  opts.commit_every = 1;
  return opts;
}

/// Collective: write the case's steps into \p dir as step_0000.ptb, ...
/// The field is generated once on the spatial grid (time undistributed), so
/// each step is a contiguous slab of every rank's block.
inline void write_steps(mps::Comm& comm, const StreamCase& c,
                        const std::string& dir) {
  std::vector<int> shape = dist::default_grid_shape(comm.size(), c.step_dims);
  const auto step_grid = dist::make_grid(comm, shape);
  shape.push_back(1);
  const dist::DistTensor field =
      data::make_low_rank(dist::make_grid(comm, shape), c.field_dims(),
                          c.field_ranks, c.seed, 1e-6);
  const std::size_t slab = field.local().size() / c.steps;
  for (std::size_t t = 0; t < c.steps; ++t) {
    dist::DistTensor step(step_grid, c.step_dims);
    PT_CHECK(step.local().size() == slab, "write_steps: slab size mismatch");
    std::copy_n(field.local().data() + t * slab, slab, step.local().data());
    char name[32];
    std::snprintf(name, sizeof name, "/step_%04zu.ptb", t);
    pario::write_dist_tensor(dir + name, step);
  }
}

/// Collective: one StreamingCompressor pass over \p steps into a fresh
/// \p archive. Rank 0 appends each window's wall time and result.
inline void stream_pass(
    mps::Comm& comm, const StreamCase& c, const std::string& steps,
    const std::string& archive, std::vector<double>& window_s,
    std::vector<core::StreamingCompressor::WindowResult>& windows) {
  core::StreamingCompressor sc(comm, steps, archive, stream_options(c));
  core::StreamingCompressor::WindowResult w;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    if (!sc.compress_next(&w)) break;
    if (comm.rank() == 0) {
      window_s.push_back(seconds_between(t0, Clock::now()));
      windows.push_back(w);
    }
  }
}

/// The committed archive covers every step, one entry per window, each
/// within eps.
[[nodiscard]] inline bool archive_complete(const StreamCase& c,
                                           const std::string& archive) {
  const pario::ArchiveReader ar(archive);
  bool ok = ar.entry_count() == c.windows() && ar.step_end() == c.steps;
  for (const pario::ArchiveEntry& e : ar.entries()) ok = ok && e.eps <= c.eps;
  return ok;
}

inline void run_stream(const RunOptions& o, Result& res) {
  const StreamCase c = stream_case(o);
  const std::string dir = o.workdir + "/stream";
  const std::string steps = dir + "/steps";
  const std::string archive = dir + "/archive.pta";
  const double raw_bytes = static_cast<double>(c.steps) * c.step_bytes();
  const double window_mb = static_cast<double>(c.window) * c.step_bytes() / 1e6;
  res.config("step_dims", shape_text(c.step_dims));
  res.config("steps", std::to_string(c.steps));
  res.config("window", std::to_string(c.window));
  res.config("eps", "1e-3");

  mps::Runtime rt(kRanks);
  const auto setup = [&](const std::string& d) {
    std::filesystem::create_directories(d + "/steps");
    rt.run([&](mps::Comm& comm) { write_steps(comm, c, d + "/steps"); });
  };
  std::vector<double> setups{time_setup(dir, setup)};

  // One pass; every window is an op, and the archive is checked whole.
  // Returns the pass's wall seconds.
  std::string golden;
  const auto pass = [&](std::vector<double>& window_s) {
    std::vector<core::StreamingCompressor::WindowResult> windows;
    const Clock::time_point t0 = Clock::now();
    rt.run([&](mps::Comm& comm) {
      stream_pass(comm, c, steps, archive, window_s, windows);
    });
    const double secs = seconds_between(t0, Clock::now());
    for (const auto& w : windows) {
      res.op(w.error_bound <= c.eps * (1.0 + 1e-12), "window bound above eps");
    }
    const std::string bytes = read_file(archive);
    if (golden.empty()) golden = bytes;
    res.op(windows.size() == c.windows() && archive_complete(c, archive) &&
               bytes == golden,
           "archive incomplete or not reproducible");
    return secs;
  };

  // Warm-up, which also counts one pass's messages and I/O.
  std::vector<double> warm_s;
  rt.reset_stats();
  const IoCounters io0 = IoCounters::now();
  pass(warm_s);
  const mps::CommStats comm_per_pass = rt.max_stats();
  const IoCounters io_per_pass = IoCounters::now() - io0;

  std::vector<double> pass_s;
  const auto run_block = [&](Block& b, double secs) {
    const Clock::time_point t0 = Clock::now();
    do {
      const std::size_t before = b.op_s.size();
      const double s = pass(b.op_s);
      pass_s.push_back(s);
      b.busy_s += s;
      b.mb += window_mb * static_cast<double>(b.op_s.size() - before);
    } while (seconds_between(t0, Clock::now()) < secs);
  };
  const std::vector<Block> blocks =
      timed_phase(o.seconds, o.workdir, setups, run_block, setup);
  res.samples("setup_s", setups);

  if (!o.traced()) {
    res.set("setup_s", median_of(setups));
    report_blocks(res, blocks);
    res.set("peak_rss_mb", peak_rss_mb());
    res.set("compression_ratio", compression_ratio(raw_bytes, archive));
    return;
  }

  // Traced pass: the compressor's stages from its own stream.* spans. The
  // archive must come out byte-identical to the untraced passes'.
  obs::TraceSession::start(1 << 16);
  const double traced_s = pass(warm_s);
  obs::TraceSession::stop();
  obs::TraceSession::write_chrome_json(o.trace_path);
  const SpanTotals spans;

  const auto w = static_cast<double>(c.windows());
  const double read_s = spans.seconds({"stream.read"});
  res.set("pario.read_s", read_s / w);
  res.set("pario.read_mb_s", ratio(raw_bytes / 1e6, read_s));
  res.set("data.normalize_s", spans.seconds({"stream.normalize"}) / w);
  res.set("core.sthosvd_s", spans.seconds({"stream.compress"}) / w);
  res.set("pario.append_s", spans.seconds({"stream.append"}) / w);
  res.set("pario.fsyncs", static_cast<double>(io_per_pass.fsyncs) / w);
  res.set("pario.write_mb",
          static_cast<double>(io_per_pass.write_bytes) / 1e6 / w);
  res.set("pario.file_opens", static_cast<double>(io_per_pass.file_opens) / w);
  report_mps(res, comm_per_pass, w);
  const double staged_s = spans.seconds(
      {"stream.read", "stream.normalize", "stream.compress", "stream.append"});
  res.set("bench.unattributed_s", (traced_s - staged_s) / w);
  res.set("bench.trace_overhead_pct",
          100.0 * (traced_s / median_of(pass_s) - 1.0));
}

}  // namespace ptucker::bench::suite
