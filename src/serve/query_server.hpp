#pragma once
/// \file query_server.hpp
/// \brief Concurrent reconstruction serving over PTA1 archives — the
/// paper's analysis workflow ("extract only the reconstruction of a single
/// species, a few time steps, ... a subset of the grid") turned into a
/// long-lived server: many client threads query small subtensors of the
/// archived time series and each answer is reconstructed on demand from
/// the covering entries' Tucker models, never materializing a full window.
///
/// Three layers (docs/ARCHITECTURE.md):
///   router    maps (steps [a, b), spatial box) onto the covering archive
///             entries via ArchiveReader::covering, evaluates each piece
///             with core::reconstruct_range_local (row subsets of the
///             factors — cost scales with the answer, not the window), and
///             stitches along time;
///   cache     serve::PanelCache holds hot decompressed entry panels
///             (one LRU, hit/miss/eviction counters);
///   executor  a bounded-admission pool of worker threads with one queue
///             slot per worker; when all workers are busy and the queue is
///             full, submit() blocks — overload degrades to queueing, never
///             to unbounded memory.
///
/// Every answer is bit-identical to a single-threaded
/// StreamingReconstructor::reconstruct_steps of the same box on a 1-rank
/// grid: the evaluation shares the distributed path's contraction order
/// and denormalization formula, and the entry loads assemble the same
/// bytes (serve_test.cpp holds this invariant under 8-thread load).
///
/// Archives opened by the server are revalidated against the filesystem on
/// every query: a pure append is adopted in place with cached panels kept;
/// an in-place rewrite bumps the archive's cache generation and drops its
/// panels, mirroring the TimestepReader stale-file policy. Entries that
/// archived normalization stats are always served in physical values.

#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <condition_variable>
#include <deque>
#include <mutex>

#include "pario/archive_io.hpp"
#include "pario/timestep_reader.hpp"  // detail::StepFileSig
#include "serve/panel_cache.hpp"

namespace ptucker::serve {

struct ServerOptions {
  /// Total decompressed entry panels kept hot (LRU).
  std::size_t cache_capacity = 64;
  /// Executor worker threads; 0 = evaluate on the submitting thread. The
  /// admission queue holds one waiting query per worker.
  std::size_t executor_threads = 4;
};

/// One query: global steps [step_lo, step_hi) of archive \p archive,
/// restricted to \p box per spatial mode (empty vector = full extent
/// everywhere). The answer is a |box_1| x ... x |box_S| x (step_hi -
/// step_lo) tensor, time last — the same shape reconstruct_steps returns.
struct Request {
  std::size_t archive = 0;
  std::uint64_t step_lo = 0;
  std::uint64_t step_hi = 0;
  std::vector<util::Range> box;
};

/// Executor statistics (monotonic, except peak_queue which is a
/// high-water mark).
struct ExecutorCounters {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t admission_waits = 0;  ///< submits that blocked on a full queue
  std::size_t peak_queue = 0;
};

/// Per-query introspection: what one evaluation actually did. Filled by
/// subtensor_traced(); stage times are microseconds of wall clock on the
/// evaluating thread.
struct QueryTrace {
  std::size_t entries_touched = 0;  ///< archive entries covering the range
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::uint64_t bytes_loaded = 0;  ///< compressed blob bytes read on misses
  std::uint64_t route_us = 0;      ///< validation + covering-entry lookup
  std::uint64_t load_us = 0;       ///< entry read + decompress (misses only)
  std::uint64_t reconstruct_us = 0;
  std::uint64_t denormalize_us = 0;
  std::uint64_t stitch_us = 0;
  std::uint64_t total_us = 0;
};

class QueryServer {
 public:
  /// Open the given archives (each must exist and parse). Queries name an
  /// archive by its index in this list.
  explicit QueryServer(std::vector<std::string> archive_paths,
                       ServerOptions options = {});
  /// Stops and joins the executor; queued queries complete first.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Dims of one step of archive \p a (spatial x species, no time mode).
  [[nodiscard]] tensor::Dims step_dims(std::size_t a) const;
  /// One past the last committed step of archive \p a (re-snapshots the
  /// file, so appends become visible).
  [[nodiscard]] std::uint64_t num_steps(std::size_t a) const;
  /// Revalidation generation of archive \p a: bumped when an in-place
  /// rewrite invalidated the cached panels; unchanged by pure appends.
  [[nodiscard]] std::uint64_t generation(std::size_t a) const;

  /// Synchronous evaluation on the calling thread (no queue).
  [[nodiscard]] tensor::Tensor subtensor(const Request& req) const;

  /// subtensor() plus a per-query breakdown (entries touched, cache hits,
  /// bytes loaded, per-stage micros) written to \p trace. Same answer bytes
  /// as subtensor() — tracing never changes evaluation.
  [[nodiscard]] tensor::Tensor subtensor_traced(const Request& req,
                                                QueryTrace& trace) const;

  /// Asynchronous evaluation through the bounded executor. While the
  /// admission queue is full, blocks. A malformed request surfaces as an
  /// exception on the future.
  [[nodiscard]] std::future<tensor::Tensor> submit(Request req) const;

  /// One element: value at spatial index \p idx of global step \p step.
  [[nodiscard]] double element(std::size_t a, std::uint64_t step,
                               std::span<const std::size_t> idx) const;

  /// One fiber: vary \p mode over its full extent with every other index
  /// fixed by (\p step, \p idx); \p mode == step order selects the time
  /// mode (the fiber then runs over ALL archived steps, spanning window
  /// boundaries, and idx[time] is ignored as step is).
  [[nodiscard]] std::vector<double> fiber(
      std::size_t a, std::uint64_t step, int mode,
      std::span<const std::size_t> idx) const;

  /// Full-box time range: every spatial index of steps [lo, hi).
  [[nodiscard]] tensor::Tensor time_range(std::size_t a, std::uint64_t lo,
                                          std::uint64_t hi) const;

  [[nodiscard]] const PanelCache& cache() const { return cache_; }
  [[nodiscard]] ExecutorCounters executor_counters() const;
  [[nodiscard]] std::size_t queue_size() const;
  /// Entries currently quarantined across all archives. An entry is
  /// quarantined when its load failed with a ptucker Error (checksum
  /// mismatch, I/O giveup, malformed blob): later queries touching it fail
  /// fast with QuarantinedError naming the original failure, while every
  /// other entry keeps serving. A rewrite of the archive (generation bump)
  /// lifts its quarantines.
  [[nodiscard]] std::size_t quarantined_entries() const;

  /// Live introspection: "name value" lines for this server (cache,
  /// executor, queue) followed by the process-wide obs registry snapshot —
  /// one dump sees the whole stack (serve, pario, blas, mps).
  [[nodiscard]] std::string stats_report() const;

 private:
  struct ArchiveState {
    std::string path;
    mutable std::mutex mutex;  ///< guards reader/sig/generation/poisoned
    std::shared_ptr<const pario::ArchiveReader> reader;
    pario::detail::StepFileSig sig;
    std::uint64_t generation = 0;
    /// Quarantined entries: index -> what its load failed with. Cleared on
    /// generation bump (a rewrite may have replaced the bad bytes).
    std::unordered_map<std::size_t, std::string> poisoned;
  };
  struct Job {
    Request req;
    std::promise<tensor::Tensor> promise;
  };

  /// Stable (reader, generation) snapshot of archive \p a, revalidated
  /// against the filesystem first.
  struct Snapshot {
    std::shared_ptr<const pario::ArchiveReader> reader;
    std::uint64_t generation = 0;
  };
  [[nodiscard]] Snapshot snapshot(std::size_t a) const;
  /// \p qt, when non-null, receives the per-query breakdown.
  [[nodiscard]] tensor::Tensor evaluate(const Request& req,
                                        QueryTrace* qt) const;
  void worker_loop();

  std::vector<std::unique_ptr<ArchiveState>> archives_;
  mutable PanelCache cache_;

  mutable std::mutex queue_mutex_;
  mutable std::condition_variable queue_not_empty_;
  mutable std::condition_variable queue_not_full_;
  mutable std::deque<Job> queue_;
  mutable ExecutorCounters exec_counters_;  ///< guarded by queue_mutex_
  bool stopping_ = false;                   ///< guarded by queue_mutex_
  std::vector<std::thread> workers_;
};

}  // namespace ptucker::serve
