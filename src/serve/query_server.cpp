#include "serve/query_server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>

#include "core/reconstruct.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace ptucker::serve {

namespace {

/// Serve-path registry metrics ("serve.*"), resolved once. Only what no
/// per-server record holds lives here: the executor and cache tallies are
/// ExecutorCounters/CacheCounters, exported as "server.*" by stats_report().
struct ServeMetrics {
  obs::Counter queries;
  obs::Counter quarantines;
  obs::Histogram query_us;
};

ServeMetrics& serve_metrics() {
  static ServeMetrics* m = [] {
    auto* t = new ServeMetrics;
    t->queries = obs::registry().counter("serve.queries");
    t->quarantines = obs::registry().counter("serve.quarantines");
    t->query_us = obs::registry().histogram("serve.query_us");
    return t;
  }();
  return *m;
}

std::uint64_t us_between(std::chrono::steady_clock::time_point t0,
                         std::chrono::steady_clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
          .count());
}

/// True when \p fresh is \p old with zero or more entries appended: every
/// old entry is unchanged (same window, same blob bytes). Anything else —
/// fewer entries, a moved blob, a re-windowed entry — is a rewrite.
bool entries_extend(const std::vector<pario::ArchiveEntry>& old_entries,
                    const std::vector<pario::ArchiveEntry>& fresh) {
  if (fresh.size() < old_entries.size()) return false;
  for (std::size_t e = 0; e < old_entries.size(); ++e) {
    const pario::ArchiveEntry& o = old_entries[e];
    const pario::ArchiveEntry& n = fresh[e];
    if (o.step_first != n.step_first || o.step_count != n.step_count ||
        o.byte_offset != n.byte_offset || o.byte_count != n.byte_count) {
      return false;
    }
  }
  return true;
}

}  // namespace

QueryServer::QueryServer(std::vector<std::string> archive_paths,
                         ServerOptions options)
    : cache_(options.cache_capacity) {
  PT_REQUIRE(!archive_paths.empty(), "QueryServer: no archives given");
  archives_.reserve(archive_paths.size());
  for (std::string& path : archive_paths) {
    auto st = std::make_unique<ArchiveState>();
    st->path = std::move(path);
    // Signature before parse: anything that changes the file after this
    // stat is caught by the next revalidation, never missed.
    const std::optional<pario::detail::StepFileSig> sig =
        pario::detail::stat_sig(st->path);
    PT_REQUIRE(sig.has_value(), "QueryServer: cannot stat " << st->path);
    st->sig = *sig;
    st->reader = std::make_shared<const pario::ArchiveReader>(st->path);
    archives_.push_back(std::move(st));
  }
  workers_.reserve(options.executor_threads);
  for (std::size_t i = 0; i < options.executor_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

QueryServer::~QueryServer() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

QueryServer::Snapshot QueryServer::snapshot(std::size_t a) const {
  PT_REQUIRE(a < archives_.size(),
             "serve: archive " << a << " out of range");
  ArchiveState& st = *archives_[a];
  // Stat outside the lock so concurrent queries on the same (unchanged)
  // archive are not serialized behind each other's metadata round-trip.
  const std::optional<pario::detail::StepFileSig> sig =
      pario::detail::stat_sig(st.path);
  PT_REQUIRE(sig.has_value(), "serve: cannot stat " << st.path);
  std::lock_guard<std::mutex> lock(st.mutex);
  if (*sig == st.sig) return {st.reader, st.generation};
  // The file changed since the current reader parsed it. Re-open, then
  // decide: a pure append (same inode, grown, every old entry intact) is
  // adopted in place with the cached panels kept — their keys still name
  // the same bytes; anything else is a rewrite, so the generation is
  // bumped and the archive's panels dropped (stale models must never
  // serve). An unchanged-size mtime bump cannot be told apart from an
  // in-place payload rewrite, so it conservatively counts as a rewrite.
  auto fresh = std::make_shared<const pario::ArchiveReader>(st.path);
  PT_REQUIRE(fresh->step_dims() == st.reader->step_dims(),
             "serve: " << st.path
                       << " step dims changed under the server");
  const bool append = sig->dev == st.sig.dev && sig->ino == st.sig.ino &&
                      sig->size > st.sig.size &&
                      entries_extend(st.reader->entries(), fresh->entries());
  if (!append) {
    ++st.generation;
    cache_.erase_archive(a);
    // A rewrite may have replaced the bytes an entry was quarantined for;
    // lift the quarantines and let the next touch re-judge each entry.
    st.poisoned.clear();
  }
  st.reader = std::move(fresh);
  st.sig = *sig;
  return {st.reader, st.generation};
}

tensor::Dims QueryServer::step_dims(std::size_t a) const {
  PT_REQUIRE(a < archives_.size(),
             "serve: archive " << a << " out of range");
  // Step dims are an archive invariant (snapshot() rejects a file whose
  // dims changed), so no revalidation round-trip is needed here.
  std::lock_guard<std::mutex> lock(archives_[a]->mutex);
  return archives_[a]->reader->step_dims();
}

std::uint64_t QueryServer::num_steps(std::size_t a) const {
  return snapshot(a).reader->step_end();
}

std::uint64_t QueryServer::generation(std::size_t a) const {
  return snapshot(a).generation;
}

tensor::Tensor QueryServer::evaluate(const Request& req,
                                     QueryTrace* qt) const {
  using clock = std::chrono::steady_clock;
  const clock::time_point t_begin = clock::now();
  obs::Span span_query("serve.query");

  const Snapshot snap = snapshot(req.archive);
  const pario::ArchiveReader& ar = *snap.reader;
  const tensor::Dims& sdims = ar.step_dims();
  const std::size_t sorder = sdims.size();

  std::vector<util::Range> box = req.box;
  std::vector<std::size_t> hits;
  {
    obs::Span span_route("serve.route");
    if (box.empty()) {
      box.resize(sorder);
      for (std::size_t n = 0; n < sorder; ++n) box[n] = {0, sdims[n]};
    }
    PT_REQUIRE(box.size() == sorder,
               "serve: " << box.size() << " box ranges for a step order of "
                         << sorder);
    for (std::size_t n = 0; n < sorder; ++n) {
      PT_REQUIRE(box[n].lo < box[n].hi && box[n].hi <= sdims[n],
                 "serve: box range [" << box[n].lo << ", " << box[n].hi
                                      << ") out of bounds in mode " << n
                                      << " (extent " << sdims[n] << ")");
    }
    // covering validates the step range (non-empty, within the archive).
    hits = ar.covering(req.step_lo, req.step_hi);
  }
  if (qt != nullptr) {
    qt->entries_touched = hits.size();
    qt->route_us = us_between(t_begin, clock::now());
  }

  tensor::Dims out_dims(sorder + 1);
  for (std::size_t n = 0; n < sorder; ++n) out_dims[n] = box[n].size();
  out_dims[sorder] = req.step_hi - req.step_lo;
  tensor::Tensor out(out_dims);
  std::size_t slab = 1;  // elements of one time slice of the answer
  for (std::size_t n = 0; n < sorder; ++n) slab *= box[n].size();

  for (std::size_t e : hits) {
    obs::Span span_entry("serve.entry", static_cast<std::int64_t>(e));
    {
      // Quarantine gate: an entry whose load already failed poisons only
      // itself — queries touching it fail fast with the original failure
      // named, and every other entry keeps serving.
      ArchiveState& ast = *archives_[req.archive];
      std::lock_guard<std::mutex> lock(ast.mutex);
      const auto poison = ast.poisoned.find(e);
      if (poison != ast.poisoned.end()) {
        throw QuarantinedError("serve: entry " + std::to_string(e) + " of " +
                               ast.path +
                               " is quarantined after a failed load: " +
                               poison->second);
      }
    }
    const PanelKey key{req.archive, snap.generation, e};
    bool missed = false;
    std::shared_ptr<const EntryPanels> panels;
    try {
      panels = cache_.get_or_load(
          key, [&]() -> std::shared_ptr<const EntryPanels> {
            obs::Span span_load("serve.load", static_cast<std::int64_t>(e));
            const clock::time_point t_load = clock::now();
            missed = true;
            pario::LocalModelData md = ar.read_entry_local(e);
            auto p = std::make_shared<EntryPanels>();
            p->step_first = ar.entry(e).step_first;
            p->step_count = ar.entry(e).step_count;
            p->core = std::move(md.core);
            p->factors = std::move(md.factors);
            p->has_stats = md.has_stats;
            p->stats = std::move(md.stats);
            if (qt != nullptr) {
              qt->bytes_loaded += ar.entry(e).byte_count;
              qt->load_us += us_between(t_load, clock::now());
            }
            return p;
          });
    } catch (const Error& err) {
      // The entry's bytes are bad (checksum mismatch, I/O giveup,
      // malformed blob): quarantine it so later queries fail fast instead
      // of re-reading known-bad data.
      ArchiveState& ast = *archives_[req.archive];
      bool fresh = false;
      {
        std::lock_guard<std::mutex> lock(ast.mutex);
        fresh = ast.poisoned.emplace(e, err.what()).second;
      }
      if (fresh) serve_metrics().quarantines.inc();
      throw;
    }
    if (qt != nullptr) {
      // A racing thread's insert still counts as this query's miss: the
      // loader ran (or didn't) on this thread, which is what load_us times.
      if (missed) {
        ++qt->cache_misses;
      } else {
        ++qt->cache_hits;
      }
    }
    // This entry's share of the answer: the requested box, restricted in
    // time to the overlap of [step_lo, step_hi) with the entry's window.
    const std::uint64_t glo = std::max(req.step_lo, panels->step_first);
    const std::uint64_t ghi = std::min(
        req.step_hi, panels->step_first + panels->step_count);
    std::vector<util::Range> ranges = box;
    ranges.push_back({static_cast<std::size_t>(glo - panels->step_first),
                      static_cast<std::size_t>(ghi - panels->step_first)});
    const clock::time_point t_recon = clock::now();
    tensor::Tensor part;
    {
      obs::Span span_recon("serve.reconstruct",
                           static_cast<std::int64_t>(e));
      part = core::reconstruct_range_local(
          panels->core,
          std::span<const tensor::Matrix>(panels->factors), ranges);
    }
    const clock::time_point t_denorm = clock::now();
    if (qt != nullptr) qt->reconstruct_us += us_between(t_recon, t_denorm);
    if (panels->has_stats) {
      obs::Span span_denorm("serve.denormalize",
                            static_cast<std::int64_t>(e));
      PT_REQUIRE(panels->stats.species_mode >= 0 &&
                     panels->stats.species_mode < static_cast<int>(sorder),
               "serve: archived stats name a non-spatial species mode");
      data::denormalize_species_range_seq(
          part, panels->stats,
          box[static_cast<std::size_t>(panels->stats.species_mode)].lo);
    }
    const clock::time_point t_stitch = clock::now();
    if (qt != nullptr) qt->denormalize_us += us_between(t_denorm, t_stitch);
    {
      obs::Span span_stitch("serve.stitch", static_cast<std::int64_t>(e));
      // Stitch along time (last, slowest mode): this entry's share is one
      // contiguous slab of the answer — a pure memcpy, as
      // reconstruct_steps.
      PT_CHECK(part.size() == slab * (ghi - glo),
               "serve: stitch slab size mismatch");
      std::memcpy(out.data() + (glo - req.step_lo) * slab, part.data(),
                  part.size() * sizeof(double));
    }
    if (qt != nullptr) qt->stitch_us += us_between(t_stitch, clock::now());
  }
  const std::uint64_t total_us = us_between(t_begin, clock::now());
  if (qt != nullptr) qt->total_us = total_us;
  serve_metrics().queries.inc();
  serve_metrics().query_us.record(total_us);
  return out;
}

tensor::Tensor QueryServer::subtensor(const Request& req) const {
  return evaluate(req, nullptr);
}

tensor::Tensor QueryServer::subtensor_traced(const Request& req,
                                             QueryTrace& trace) const {
  trace = QueryTrace{};
  return evaluate(req, &trace);
}

std::future<tensor::Tensor> QueryServer::submit(Request req) const {
  std::promise<tensor::Tensor> promise;
  std::future<tensor::Tensor> fut = promise.get_future();
  if (workers_.empty()) {
    // executor_threads == 0: evaluate on the submitting thread; the
    // returned future is already satisfied.
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      ++exec_counters_.submitted;
    }
    try {
      promise.set_value(evaluate(req, nullptr));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
    std::lock_guard<std::mutex> lock(queue_mutex_);
    ++exec_counters_.completed;
    return fut;
  }
  std::unique_lock<std::mutex> lock(queue_mutex_);
  PT_REQUIRE(!stopping_, "serve: submit on a stopped server");
  // Admission control: one waiting query per worker. A full queue blocks
  // the client instead of growing the queue — overload degrades to
  // latency, not memory.
  const std::size_t depth = workers_.size();
  if (queue_.size() >= depth) {
    ++exec_counters_.admission_waits;
    obs::Span span_wait("serve.admission_wait");
    queue_not_full_.wait(
        lock, [&] { return queue_.size() < depth || stopping_; });
    PT_REQUIRE(!stopping_, "serve: submit on a stopped server");
  }
  queue_.push_back(Job{std::move(req), std::move(promise)});
  ++exec_counters_.submitted;
  exec_counters_.peak_queue =
      std::max(exec_counters_.peak_queue, queue_.size());
  lock.unlock();
  queue_not_empty_.notify_one();
  return fut;
}

void QueryServer::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_not_empty_.wait(lock,
                            [&] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) return;  // stopping, and the queue has drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_not_full_.notify_one();
    // Count completion BEFORE resolving the future, so a client that has
    // seen every future resolve also sees completed == submitted.
    try {
      tensor::Tensor result = evaluate(job.req, nullptr);
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        ++exec_counters_.completed;
      }
      job.promise.set_value(std::move(result));
    } catch (...) {
      // A malformed request (bad box, uncovered range) surfaces on the
      // client's future; the worker keeps serving.
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        ++exec_counters_.completed;
      }
      job.promise.set_exception(std::current_exception());
    }
  }
}

double QueryServer::element(std::size_t a, std::uint64_t step,
                            std::span<const std::size_t> idx) const {
  const tensor::Dims sdims = step_dims(a);
  PT_REQUIRE(idx.size() == sdims.size(),
             "serve: element index arity " << idx.size()
                                           << " != step order "
                                           << sdims.size());
  Request req;
  req.archive = a;
  req.step_lo = step;
  req.step_hi = step + 1;
  req.box.resize(sdims.size());
  for (std::size_t n = 0; n < sdims.size(); ++n) {
    PT_REQUIRE(idx[n] < sdims[n],
               "serve: element index out of bounds in mode " << n);
    req.box[n] = {idx[n], idx[n] + 1};
  }
  return evaluate(req, nullptr)[0];
}

std::vector<double> QueryServer::fiber(
    std::size_t a, std::uint64_t step, int mode,
    std::span<const std::size_t> idx) const {
  const tensor::Dims sdims = step_dims(a);
  const int sorder = static_cast<int>(sdims.size());
  PT_REQUIRE(mode >= 0 && mode <= sorder,
             "serve: fiber mode " << mode << " out of range (time mode is "
                                  << sorder << ")");
  PT_REQUIRE(idx.size() == sdims.size(),
             "serve: fiber index arity " << idx.size() << " != step order "
                                         << sdims.size());
  Request req;
  req.archive = a;
  req.box.resize(sdims.size());
  for (int n = 0; n < sorder; ++n) {
    const auto un = static_cast<std::size_t>(n);
    if (n == mode) {
      req.box[un] = {0, sdims[un]};
    } else {
      PT_REQUIRE(idx[un] < sdims[un],
                 "serve: fiber index out of bounds in mode " << n);
      req.box[un] = {idx[un], idx[un] + 1};
    }
  }
  if (mode == sorder) {
    // Time fiber: all archived steps, spanning window boundaries.
    req.step_lo = 0;
    req.step_hi = num_steps(a);
  } else {
    req.step_lo = step;
    req.step_hi = step + 1;
  }
  const tensor::Tensor t = evaluate(req, nullptr);
  return {t.data(), t.data() + t.size()};
}

tensor::Tensor QueryServer::time_range(std::size_t a, std::uint64_t lo,
                                       std::uint64_t hi) const {
  Request req;
  req.archive = a;
  req.step_lo = lo;
  req.step_hi = hi;
  return evaluate(req, nullptr);
}

ExecutorCounters QueryServer::executor_counters() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return exec_counters_;
}

std::size_t QueryServer::queue_size() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return queue_.size();
}

std::size_t QueryServer::quarantined_entries() const {
  std::size_t n = 0;
  for (const std::unique_ptr<ArchiveState>& st : archives_) {
    std::lock_guard<std::mutex> lock(st->mutex);
    n += st->poisoned.size();
  }
  return n;
}

std::string QueryServer::stats_report() const {
  const CacheCounters cc = cache_.counters();
  const ExecutorCounters ec = executor_counters();
  std::ostringstream os;
  os << "server.archives " << archives_.size() << "\n"
     << "server.cache.resident " << cache_.size() << "\n"
     << "server.cache.capacity " << cache_.capacity() << "\n"
     << "server.cache.lookups " << cc.lookups << "\n"
     << "server.cache.hits " << cc.hits << "\n"
     << "server.cache.misses " << cc.misses << "\n"
     << "server.cache.evictions " << cc.evictions << "\n"
     << "server.cache.invalidations " << cc.invalidations << "\n"
     << "server.exec.submitted " << ec.submitted << "\n"
     << "server.exec.completed " << ec.completed << "\n"
     << "server.exec.admission_waits " << ec.admission_waits << "\n"
     << "server.exec.peak_queue " << ec.peak_queue << "\n"
     << "server.exec.queue_size " << queue_size() << "\n"
     << "server.quarantined " << quarantined_entries() << "\n"
     << obs::registry().snapshot().to_text();
  return os.str();
}

}  // namespace ptucker::serve
