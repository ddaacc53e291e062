/// \file ablate_io_paths.cpp
/// \brief The two ways to move a distributed tensor to and from disk:
///   root-funnel : binomial-tree gather/scatter through rank 0 (O(log P)
///                 root latency), rank 0 writes and reads one PTT1 file
///   parallel    : the PTB1 chunked container — every rank pread/pwrites
///                 its own block, zero inter-rank data movement
/// TuckerMPI (Ballard, Klinvex, Kolda 2019) made exactly this layer
/// first-class because the decomposition is IO-bound at combustion scale.

#include <filesystem>

#include "bench_common.hpp"
#include "dist/grid.hpp"
#include "pario/block_file.hpp"
#include "util/cli.hpp"

using namespace ptucker;

namespace {

std::string tmp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct PathResult {
  double write_s = 0.0;
  double read_s = 0.0;
  double words = 0.0;     // max per-rank injected words
  std::uint64_t msgs = 0; // max per-rank injected messages
};

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("ablate_io_paths",
                       "root-funnel vs parallel-chunk tensor IO");
  args.add_int("dim", 48, "extent of every mode (order-3 tensor)");
  args.add_int("ranks", 4, "number of (thread) ranks");
  args.add_int("reps", 3, "write+read repetitions per path");
  args.parse(argc, argv);

  const std::size_t dim = static_cast<std::size_t>(args.get_int("dim"));
  const int p = static_cast<int>(args.get_int("ranks"));
  const int reps = static_cast<int>(args.get_int("reps"));
  const tensor::Dims dims{dim, dim, dim};

  bench::header("Ablation: IO paths",
                "write+read a " + bench::dims_name(dims) + " DistTensor on " +
                    std::to_string(p) + " ranks");

  mps::Runtime rt(p);
  std::vector<dist::DistTensor> xs(static_cast<std::size_t>(p));
  rt.run([&](mps::Comm& comm) {
    auto grid = dist::make_grid(comm, dist::default_grid_shape(p, dims));
    dist::DistTensor x(grid, dims);
    x.fill_global([](std::span<const std::size_t> idx) {
      double v = 1.0;
      for (std::size_t i : idx) v += static_cast<double>(i % 7);
      return v;
    });
    xs[static_cast<std::size_t>(comm.rank())] = std::move(x);
  });

  const std::string funnel_file = tmp_path("ptucker_io_funnel.ptt");
  const std::vector<util::Range> whole(dims.size(), util::Range{0, dim});
  const std::string chunk_file = tmp_path("ptucker_io_chunk.ptb");

  auto run_funnel = [&] {
    PathResult res;
    rt.reset_stats();
    rt.run([&](mps::Comm& comm) {
      auto& x = xs[static_cast<std::size_t>(comm.rank())];
      const double tw = bench::time_region(comm, [&] {
        for (int r = 0; r < reps; ++r) {
          const tensor::Tensor global = x.gather(0);
          if (comm.rank() == 0) pario::save_tensor(funnel_file, global);
          comm.barrier();  // file complete before anyone reads
        }
      });
      const double tr = bench::time_region(comm, [&] {
        for (int r = 0; r < reps; ++r) {
          tensor::Tensor global;
          if (comm.rank() == 0) {
            global = pario::BlockFile::open(funnel_file).read_ranges(whole);
          }
          const dist::DistTensor y =
              dist::DistTensor::scatter(x.grid_ptr(), global, 0);
          PT_CHECK(y.local().size() == x.local().size(), "bad round trip");
        }
      });
      if (comm.rank() == 0) {
        res.write_s = tw / reps;
        res.read_s = tr / reps;
      }
    });
    res.words = rt.max_stats().words_sent() / reps;
    res.msgs = rt.max_stats().messages_sent / static_cast<std::uint64_t>(reps);
    return res;
  };

  auto run_parallel = [&] {
    PathResult res;
    rt.reset_stats();
    rt.run([&](mps::Comm& comm) {
      auto& x = xs[static_cast<std::size_t>(comm.rank())];
      const double tw = bench::time_region(comm, [&] {
        for (int r = 0; r < reps; ++r) {
          pario::write_dist_tensor(chunk_file, x);
        }
      });
      const double tr = bench::time_region(comm, [&] {
        for (int r = 0; r < reps; ++r) {
          const dist::DistTensor y =
              pario::read_dist_tensor(x.grid_ptr(), chunk_file);
          PT_CHECK(y.local().size() == x.local().size(), "bad round trip");
        }
      });
      if (comm.rank() == 0) {
        res.write_s = tw / reps;
        res.read_s = tr / reps;
      }
    });
    res.words = rt.max_stats().words_sent() / reps;
    res.msgs = rt.max_stats().messages_sent / static_cast<std::uint64_t>(reps);
    return res;
  };

  const PathResult tree = run_funnel();
  const PathResult chunk = run_parallel();

  util::Table table({"path", "write(s)", "read(s)", "words/rank(max)",
                     "msgs/rank(max)"});
  auto row = [&](const char* name, const PathResult& r) {
    table.add_row({name, util::Table::fmt(r.write_s, 4),
                   util::Table::fmt(r.read_s, 4), util::Table::fmt(r.words, 0),
                   std::to_string(r.msgs)});
  };
  row("root-funnel(tree)", tree);
  row("parallel-chunk", chunk);
  std::printf("%s", table.str().c_str());
  std::printf("parallel-chunk vs tree funnel: write %.2fx, read %.2fx\n",
              tree.write_s / chunk.write_s, tree.read_s / chunk.read_s);
  bench::paper_note(
      "TuckerMPI-style parallel IO: the chunked PTB1 container moves zero "
      "words between ranks (the residual messages are barrier tokens) and "
      "removes the root latency and the full-tensor copy on rank 0; the "
      "tree funnel keeps the root copy but cuts its latency to O(log P).");

  std::filesystem::remove(funnel_file);
  std::filesystem::remove(chunk_file);
  return 0;
}
