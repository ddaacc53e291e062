#pragma once
/// \file serve.hpp
/// \brief serve-hot and serve-cold: closed-loop clients querying subtensors
/// of a stream-append-style archive through serve::QueryServer; one op is
/// one query. The client count is the load limit (two threads, executor
/// off, so every query is evaluated on its client's thread).
///
/// serve-hot keeps every entry panel resident (the router, panel cache and
/// reconstruct_range_local carry the load, no disk); serve-cold keeps a
/// single panel, so almost every query loads its entry — read_entry_local,
/// CRC32C and parse, the read side beside stream-append's writes.

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/streaming.hpp"
#include "dist/grid.hpp"
#include "mps/runtime.hpp"
#include "serve/query_server.hpp"
#include "stream.hpp"
#include "util/rng.hpp"

namespace ptucker::bench::suite {

/// Seeded query stream: a uniformly chosen entry, 1-4 steps from a point in
/// its window (so a query may span two windows), a box of 1/8 to 1/2 of
/// each spatial extent, and 1 to all species.
class QueryGen {
 public:
  QueryGen(const StreamCase& c, std::uint64_t seed)
      : c_(c), base_(util::splitmix64(seed)) {}

  [[nodiscard]] serve::Request next() {
    serve::Request q;
    const std::uint64_t entry = draw(c_.windows());
    q.step_lo = std::min<std::uint64_t>(entry * c_.window + draw(c_.window),
                                        c_.steps - 1);
    q.step_hi = std::min<std::uint64_t>(q.step_lo + 1 + draw(4), c_.steps);
    for (std::size_t n = 0; n < c_.step_dims.size(); ++n) {
      const std::size_t dim = c_.step_dims[n];
      const bool species = static_cast<int>(n) == c_.species_mode;
      const std::size_t lo_ext = species ? 1 : dim / 8;
      const std::size_t hi_ext = species ? dim : dim / 2;
      const std::size_t ext = lo_ext + draw(hi_ext - lo_ext + 1);
      const std::size_t start = draw(dim - ext + 1);
      q.box.push_back({start, start + ext});
    }
    return q;
  }

  [[nodiscard]] static std::size_t answer_size(const serve::Request& q) {
    std::size_t n = q.step_hi - q.step_lo;
    for (const util::Range& r : q.box) n *= r.size();
    return n;
  }

 private:
  std::uint64_t draw(std::uint64_t n) {
    return util::splitmix64(base_ + counter_++) % n;
  }
  const StreamCase& c_;
  std::uint64_t base_;
  std::uint64_t counter_ = 0;
};

/// Add one query's breakdown into a running sum (total_us is not used).
inline void accumulate(serve::QueryTrace& sum, const serve::QueryTrace& t) {
  sum.entries_touched += t.entries_touched;
  sum.cache_hits += t.cache_hits;
  sum.cache_misses += t.cache_misses;
  sum.bytes_loaded += t.bytes_loaded;
  sum.route_us += t.route_us;
  sum.load_us += t.load_us;
  sum.reconstruct_us += t.reconstruct_us;
  sum.denormalize_us += t.denormalize_us;
  sum.stitch_us += t.stitch_us;
}

/// What one client saw.
struct ClientLog {
  std::vector<double> latency_s;
  double answer_bytes = 0.0;
  std::uint64_t failed = 0;
  serve::QueryTrace stages;  ///< summed over the client's traced queries
};

/// Run kRanks closed-loop clients for \p seconds, each drawing its own
/// seeded queries and passing each to \p eval (which returns the answer).
/// Returns the wall seconds of the whole phase.
template <class Eval>
double run_clients(const StreamCase& c, std::uint64_t seed, double seconds,
                   std::vector<ClientLog>& logs, Eval eval) {
  logs.assign(kRanks, ClientLog{});
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int k = 0; k < kRanks; ++k) {
    clients.emplace_back([&, k] {
      ClientLog& log = logs[static_cast<std::size_t>(k)];
      QueryGen gen(c, seed * 1000003 + static_cast<std::uint64_t>(k));
      while (Clock::now() < deadline) {
        const serve::Request q = gen.next();
        obs::Span span("bench.query");
        const Clock::time_point q0 = Clock::now();
        try {
          const tensor::Tensor a = eval(q, log.stages);
          log.latency_s.push_back(seconds_between(q0, Clock::now()));
          log.answer_bytes += static_cast<double>(a.size() * sizeof(double));
          if (a.size() != QueryGen::answer_size(q)) ++log.failed;
        } catch (const std::exception& e) {
          if (log.failed++ == 0) {
            std::fprintf(stderr, "ptucker_bench: query failed: %s\n",
                         e.what());
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return seconds_between(t0, Clock::now());
}

/// Latencies of every client, and the failed-query count, into \p res.
inline std::vector<double> merge_clients(const std::vector<ClientLog>& logs,
                                         Result& res) {
  std::vector<double> all;
  for (const ClientLog& log : logs) {
    all.insert(all.end(), log.latency_s.begin(), log.latency_s.end());
    res.ops(log.latency_s.size() + log.failed, log.failed,
            "queries threw or returned a wrong shape");
  }
  return all;
}

inline void run_serve(const RunOptions& o, Result& res) {
  const StreamCase c = stream_case(o);
  const bool hot = o.workload == "serve-hot";
  const std::string dir = o.workdir + "/serve";
  const std::string archive = dir + "/archive.pta";
  serve::ServerOptions so;
  so.cache_capacity = hot ? 64 : 1;
  so.executor_threads = 0;
  res.config("step_dims", shape_text(c.step_dims));
  res.config("entries", std::to_string(c.windows()));
  res.config("cache_capacity", std::to_string(so.cache_capacity));
  res.config("clients", std::to_string(kRanks));

  mps::Runtime rt(kRanks);
  const auto setup = [&](const std::string& d) {
    const std::string steps = d + "/steps";
    std::filesystem::create_directories(steps);
    std::vector<double> window_s;
    std::vector<core::StreamingCompressor::WindowResult> windows;
    rt.run([&](mps::Comm& comm) {
      write_steps(comm, c, steps);
      stream_pass(comm, c, steps, d + "/archive.pta", window_s, windows);
    });
    std::filesystem::remove_all(steps);
  };
  std::vector<double> setups{time_setup(dir, setup)};

  const serve::QueryServer server({archive}, so);
  const auto plain = [&](const serve::Request& q, serve::QueryTrace&) {
    return server.subtensor(q);
  };
  std::vector<ClientLog> logs;
  run_clients(c, o.seed ^ 0x77a3, o.seconds / 10, logs, plain);  // warm-up

  std::uint64_t block_seed = o.seed;
  const auto run_block = [&](Block& b, double secs) {
    b.busy_s = run_clients(c, block_seed++, secs, logs, plain);
    b.op_s = merge_clients(logs, res);
    for (const ClientLog& log : logs) b.mb += log.answer_bytes / 1e6;
  };
  const std::vector<Block> blocks =
      timed_phase(o.seconds, o.workdir, setups, run_block, setup);
  res.samples("setup_s", setups);
  if (!o.traced()) {
    res.set("setup_s", median_of(setups));
    report_blocks(res, blocks);
    res.set("peak_rss_mb", peak_rss_mb());
    res.set("compression_ratio",
            compression_ratio(static_cast<double>(c.steps) * c.step_bytes(),
                              archive));
  } else {
    // Traced phase: the same clients through subtensor_traced, whose
    // per-stage breakdown is summed per client.
    const auto traced = [&](const serve::Request& q, serve::QueryTrace& sum) {
      serve::QueryTrace t;
      tensor::Tensor a = server.subtensor_traced(q, t);
      accumulate(sum, t);
      return a;
    };
    const IoCounters io0 = IoCounters::now();
    obs::TraceSession::start(1 << 18);
    run_clients(c, o.seed ^ 0x5eed, o.seconds / kBlocks, logs, traced);
    obs::TraceSession::stop();
    obs::TraceSession::write_chrome_json(o.trace_path);
    const IoCounters io = IoCounters::now() - io0;
    const std::vector<double> traced_lat = merge_clients(logs, res);
    serve::QueryTrace sum;
    double busy_s = 0.0;
    for (const ClientLog& log : logs) {
      accumulate(sum, log.stages);
      for (const double s : log.latency_s) busy_s += s;
    }
    const auto q = static_cast<double>(traced_lat.size());
    const auto per_query = [&](double v) { return ratio(v, q); };
    const double staged_us =
        static_cast<double>(sum.route_us + sum.load_us + sum.reconstruct_us +
                            sum.denormalize_us + sum.stitch_us);
    res.set("serve.route_us", per_query(static_cast<double>(sum.route_us)));
    res.set("serve.load_us", per_query(static_cast<double>(sum.load_us)));
    res.set("serve.reconstruct_us",
            per_query(static_cast<double>(sum.reconstruct_us)));
    res.set("serve.denormalize_us",
            per_query(static_cast<double>(sum.denormalize_us)));
    res.set("serve.stitch_us", per_query(static_cast<double>(sum.stitch_us)));
    res.set("serve.hit_ratio",
            ratio(static_cast<double>(sum.cache_hits),
                  static_cast<double>(sum.cache_hits + sum.cache_misses)));
    res.set("serve.entries_per_query",
            per_query(static_cast<double>(sum.entries_touched)));
    res.set("serve.bytes_loaded_per_query",
            per_query(static_cast<double>(sum.bytes_loaded)));
    res.set("pario.fsyncs", per_query(static_cast<double>(io.fsyncs)));
    res.set("pario.write_mb", per_query(static_cast<double>(io.write_bytes)) / 1e6);
    res.set("pario.file_opens", per_query(static_cast<double>(io.file_opens)));
    res.set("bench.unattributed_s", per_query(busy_s - staged_us * 1e-6));
    res.set("bench.trace_overhead_pct",
            100.0 * (median_of(traced_lat) / median_of(all_ops(blocks)) - 1.0));

    // The entry loader alone, timed directly: every entry, a few times.
    const pario::ArchiveReader ar(archive);
    double load_s = 0.0;
    double load_bytes = 0.0;
    std::size_t loads = 0;
    for (int rep = 0; rep < (o.smoke ? 1 : 8); ++rep) {
      for (std::size_t e = 0; e < ar.entry_count(); ++e) {
        const Clock::time_point t0 = Clock::now();
        const pario::LocalModelData md = ar.read_entry_local(e);
        load_s += seconds_between(t0, Clock::now());
        load_bytes += static_cast<double>(ar.entry(e).byte_count);
        ++loads;
      }
    }
    res.set("pario.read_s", ratio(load_s, static_cast<double>(loads)));
    res.set("pario.read_mb_s", ratio(load_bytes / 1e6, load_s));
  }

  // Bit-identity: seeded queries against a 1-rank reconstruct_steps.
  QueryGen gen(c, o.seed ^ 0xc0ffee);
  std::vector<serve::Request> qs(o.smoke ? 50 : 500);
  for (serve::Request& q : qs) q = gen.next();
  std::vector<char> match(qs.size(), 0);
  mps::Runtime one(1);
  one.run([&](mps::Comm& comm) {
    const auto grid =
        dist::make_grid(comm, std::vector<int>(c.step_dims.size() + 1, 1));
    const core::StreamingReconstructor rec(archive);
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const dist::DistTensor want =
          rec.reconstruct_steps(grid, qs[i].step_lo, qs[i].step_hi, qs[i].box);
      const tensor::Tensor got = server.subtensor(qs[i]);
      match[i] = want.local().size() == got.size() &&
                 std::memcmp(want.local().data(), got.data(),
                             got.size() * sizeof(double)) == 0;
    }
  });
  for (const char m : match) {
    res.op(m != 0, "served answer differs from reconstruct_steps");
  }
}

}  // namespace ptucker::bench::suite
