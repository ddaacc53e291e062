/// \file ptucker_bench.cpp
/// \brief ptucker's performance record: end-to-end and per-layer metrics
/// over the compress, stream and serve workloads, one workload per process.
///
///   ptucker_bench --workload <name> --seed <s> --json out.json
///                 [--trace trace.json] [--seconds S] [--smoke]
///
/// A run generates its inputs from the seed (timed as setup_s), runs one
/// untimed warm-up op, times ops for --seconds in blocks with the set-up
/// repeated between them, then checks the outputs; a wrong answer counts
/// as a failed op. Without --trace it reports the end-to-end metrics; with
/// --trace it also runs one traced op (or pass, or query phase), reports
/// the per-layer metrics from the program's own spans and writes them as
/// chrome://tracing JSON. Metric names and units are listed in common.hpp
/// and README.md.

#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "blas/blas.hpp"
#include "common.hpp"
#include "compress.hpp"
#include "obs/registry.hpp"
#include "serve.hpp"
#include "stream.hpp"
#include "util/cli.hpp"

using namespace ptucker;
using namespace ptucker::bench::suite;

namespace {

void run_workload(const RunOptions& o, Result& res) {
  if (o.workload == "compress-sp" || o.workload == "compress-scaling") {
    run_compress(o, res);
  } else if (o.workload == "stream-append") {
    run_stream(o, res);
  } else if (o.workload == "serve-hot" || o.workload == "serve-cold") {
    run_serve(o, res);
  } else {
    throw InvalidArgument("unknown workload '" + o.workload + "'");
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("ptucker_bench",
                       "end-to-end and per-layer benchmark of one workload");
  args.add_string("workload", "",
                  "compress-sp | compress-scaling | stream-append | "
                  "serve-hot | serve-cold");
  args.add_int("seed", 1, "seed the inputs and queries are generated from");
  args.add_double("seconds", 15.0, "length of the timed phase");
  args.add_string("json", "", "write the run record to this file");
  args.add_string("trace", "",
                  "traced run: report per-layer metrics and write the spans "
                  "here as chrome://tracing JSON");
  args.add_string("workdir", "",
                  "scratch directory for inputs and outputs, removed at exit "
                  "(default: ptucker_bench.<pid> in the current directory)");
  args.add_flag("smoke", "tiny inputs, every check");

  RunOptions o;
  bool created_workdir = false;
  try {
    args.parse(argc, argv);
    o.workload = args.get_string("workload");
    o.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    o.seconds = args.get_double("seconds");
    o.smoke = args.get_flag("smoke");
    o.trace_path = args.get_string("trace");
    o.workdir = args.get_string("workdir");
    if (o.workdir.empty()) {
      o.workdir = "ptucker_bench." + std::to_string(::getpid());
    }
    // Removed again at exit, so it must be a directory this run creates.
    created_workdir = std::filesystem::create_directories(o.workdir);
    PT_REQUIRE(created_workdir, "--workdir " << o.workdir
                                             << " already exists");

    // The load limit: every SPMD rank runs its kernels single-threaded.
    blas::set_gemm_threads(1);
    Result res;
    if (o.traced()) {
      res.declare(kPerLayerMetrics);
    } else {
      res.declare(kEndToEndMetrics);
    }
    res.config("ranks", std::to_string(kRanks));
    res.config("gemm_threads", "1");

    run_workload(o, res);
    const obs::Snapshot pool = obs::registry().snapshot("blas.pool.");
    const auto spawned = pool.counters.find("blas.pool.workers_spawned");
    res.op(spawned == pool.counters.end() || spawned->second == 0,
           "GEMM worker threads were spawned (load limit is two threads)");
    std::filesystem::remove_all(o.workdir);

    if (o.traced()) {
      // Machine probes, after the workload has released its memory.
      const double peak = core_peak_gflops();
      res.set("blas.peak_gflops", peak);
      res.set("blas.gram_pct_peak",
              100.0 * ratio(res.get("blas.gram_gflops"), kRanks * peak));
      res.set("util.crc32c_mb_s", crc32c_mb_s(o.smoke));
      res.set("mem.triad_gb_s", triad_gb_s(o.smoke));
    }

    res.print_lines();
    const std::string json_path = args.get_string("json");
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      out << res.json(o) << "\n";
      PT_REQUIRE(out.good(), "cannot write " << json_path);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptucker_bench: %s\n", e.what());
    if (created_workdir) {
      std::error_code ec;
      std::filesystem::remove_all(o.workdir, ec);
    }
    return 1;
  }
}
