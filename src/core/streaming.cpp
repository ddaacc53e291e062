#include "core/streaming.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "core/reconstruct.hpp"
#include "costmodel/tucker_model.hpp"
#include "dist/grid.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace ptucker::core {

std::size_t pick_streaming_window(const tensor::Dims& step_dims,
                                  const std::vector<int>& spatial_grid,
                                  std::size_t max_window,
                                  double memory_budget_doubles,
                                  std::size_t num_steps) {
  PT_REQUIRE(spatial_grid.size() == step_dims.size(),
             "pick_streaming_window: grid/step order mismatch");
  PT_REQUIRE(max_window >= 1, "pick_streaming_window: max_window < 1");
  const std::size_t cap =
      num_steps == 0 ? max_window : std::min(max_window, num_steps);
  std::vector<int> grid = spatial_grid;
  grid.push_back(1);  // time: undistributed within a window
  const costmodel::Machine machine;

  std::size_t best = 1;
  double best_per_step = std::numeric_limits<double>::infinity();
  for (std::size_t w = 1; w <= cap; ++w) {
    tensor::Dims dims = step_dims;
    dims.push_back(w);
    // The eps-driven ranks are unknown before the window is compressed;
    // budget for half of each extent so the memory bound is conservative.
    tensor::Dims ranks(dims.size());
    for (std::size_t n = 0; n < dims.size(); ++n) {
      ranks[n] = std::max<std::size_t>(1, dims[n] / 2);
    }
    if (costmodel::memory_bound_per_rank(dims, ranks, grid) >
        memory_budget_doubles) {
      break;  // eq. 2 memory grows with w: larger windows cannot fit either
    }
    std::vector<int> order(dims.size());
    std::iota(order.begin(), order.end(), 0);
    const double per_step =
        machine.seconds(costmodel::sthosvd_cost(dims, ranks, grid, order)) /
        static_cast<double>(w);
    if (per_step <= best_per_step) {  // ties go to the larger window
      best = w;
      best_per_step = per_step;
    }
  }
  return best;
}

StreamingCompressor::StreamingCompressor(mps::Comm& comm,
                                         std::string step_dir,
                                         std::string archive_path,
                                         StreamingOptions options)
    : comm_(comm),
      reader_(std::move(step_dir)),
      archive_path_(std::move(archive_path)),
      opts_(std::move(options)) {
  const tensor::Dims& sdims = reader_.step_dims();
  PT_REQUIRE(opts_.species_mode < static_cast<int>(sdims.size()),
             "StreamingCompressor: species mode " << opts_.species_mode
                                                  << " out of step order");
  std::vector<int> shape = dist::default_grid_shape(comm.size(), sdims);
  shape.push_back(1);  // time: undistributed within a window
  grid_ = dist::make_grid(comm, shape);
  window_ =
      opts_.window > 0
          ? std::min(opts_.window, reader_.num_steps())
          : pick_streaming_window(sdims, dist::default_grid_shape(
                                             comm.size(), sdims),
                                  kStreamingMaxWindow,
                                  kStreamingMemoryBudgetDoubles,
                                  reader_.num_steps());
  pario::archive_create(archive_path_, comm, sdims, opts_.species_mode);
}

bool StreamingCompressor::compress_next(WindowResult* out) {
  if (next_ >= reader_.num_steps()) return false;
  const std::size_t count = std::min(window_, reader_.num_steps() - next_);
  util::Timer timer;
  obs::Span span_window("stream.window",
                        static_cast<std::int64_t>(next_));
  dist::DistTensor x = [&] {
    obs::Span span("stream.read", static_cast<std::int64_t>(next_));
    return reader_.read_window(grid_, next_, count);
  }();
  data::NormalizationStats stats;
  const bool normalize = opts_.species_mode >= 0;
  if (normalize) {
    obs::Span span("stream.normalize", static_cast<std::int64_t>(next_));
    stats = data::normalize_species(x, opts_.species_mode);
  }
  SthosvdResult result = [&] {
    obs::Span span("stream.compress", static_cast<std::int64_t>(next_));
    return st_hosvd(x, opts_.sthosvd);
  }();
  // The entry's recorded eps is the guarantee the window was compressed
  // under; with fixed ranks there is no requested eps, so the achieved
  // eq. 3 bound is recorded instead.
  const double entry_eps = opts_.sthosvd.fixed_ranks.empty()
                               ? opts_.sthosvd.epsilon
                               : result.error_bound;
  const double error_bound = result.error_bound;
  const double ratio = result.tucker.compression_ratio();

  // Buffer the compressed window; the batched append commits every
  // commit_every windows and at the end of the stream, so K windows share
  // one bracketing fsync pair.
  PendingWindow pend;
  pend.step_first = next_;
  pend.eps = entry_eps;
  pend.model = std::move(result.tucker);
  pend.has_stats = normalize;
  if (normalize) pend.stats = std::move(stats);
  pending_.push_back(std::move(pend));
  next_ += count;
  const std::size_t commit_every = std::max<std::size_t>(
      1, opts_.commit_every);
  if (pending_.size() >= commit_every || next_ >= reader_.num_steps()) {
    flush_pending();
  }

  if (out != nullptr) {
    out->step_first = next_ - count;
    out->step_count = count;
    out->error_bound = error_bound;
    out->compression_ratio = ratio;
    out->seconds = timer.seconds();
  }
  return true;
}

void StreamingCompressor::flush_pending() {
  if (pending_.empty()) return;
  obs::Span span("stream.append",
                 static_cast<std::int64_t>(pending_.front().step_first));
  std::vector<pario::ArchiveWindow> wins;
  wins.reserve(pending_.size());
  for (const PendingWindow& p : pending_) {
    pario::ArchiveWindow w;
    w.step_first = p.step_first;
    w.eps = p.eps;
    w.core = &p.model.core;
    w.factors = std::span<const tensor::Matrix>(p.model.factors);
    w.stats = p.has_stats ? &p.stats : nullptr;
    wins.push_back(w);
  }
  pario::archive_append_models(
      archive_path_, std::span<const pario::ArchiveWindow>(wins));
  pending_.clear();
}

StreamingReconstructor::StreamingReconstructor(const std::string& archive_path)
    : archive_(archive_path) {}

dist::DistTensor StreamingReconstructor::reconstruct_steps(
    std::shared_ptr<mps::CartGrid> grid, std::uint64_t step_lo,
    std::uint64_t step_hi, std::vector<util::Range> spatial) const {
  PT_REQUIRE(grid != nullptr, "reconstruct_steps: null grid");
  const tensor::Dims& sdims = archive_.step_dims();
  const std::size_t sorder = sdims.size();
  PT_REQUIRE(grid->order() == static_cast<int>(sorder) + 1,
             "reconstruct_steps: grid order " << grid->order()
                                              << " != step order + 1");
  PT_REQUIRE(grid->extent(static_cast<int>(sorder)) == 1,
             "reconstruct_steps: the grid's time extent must be 1 (time "
             "stitching is local; distribute the spatial modes instead, or "
             "use serve::QueryServer for the grid-free single-process path)");
  if (spatial.empty()) {
    spatial.resize(sorder);
    for (std::size_t n = 0; n < sorder; ++n) spatial[n] = {0, sdims[n]};
  }
  PT_REQUIRE(spatial.size() == sorder,
             "reconstruct_steps: one spatial range per step mode");
  for (std::size_t n = 0; n < sorder; ++n) {
    PT_REQUIRE(spatial[n].lo < spatial[n].hi && spatial[n].hi <= sdims[n],
               "reconstruct_steps: spatial range out of bounds in mode "
                   << n);
  }
  const std::vector<std::size_t> hits = archive_.covering(step_lo, step_hi);

  tensor::Dims out_dims(sorder + 1);
  for (std::size_t n = 0; n < sorder; ++n) out_dims[n] = spatial[n].size();
  out_dims[sorder] = step_hi - step_lo;
  dist::DistTensor out(std::move(grid), out_dims);
  std::size_t slab = 1;  // elements of one local time slice
  for (std::size_t n = 0; n < sorder; ++n) {
    slab *= out.mode_range(static_cast<int>(n)).size();
  }

  for (std::size_t e : hits) {
    const pario::ArchiveEntry& ent = archive_.entry(e);
    pario::ModelData md = archive_.read_entry(e, out.grid_ptr());
    TuckerTensor model;
    model.core = std::move(md.core);
    model.factors = std::move(md.factors);
    const std::uint64_t glo = std::max<std::uint64_t>(step_lo,
                                                      ent.step_first);
    const std::uint64_t ghi = std::min<std::uint64_t>(step_hi,
                                                      ent.step_end());
    std::vector<util::Range> ranges = spatial;
    ranges.push_back({static_cast<std::size_t>(glo - ent.step_first),
                      static_cast<std::size_t>(ghi - ent.step_first)});
    dist::DistTensor part = reconstruct_range(model, ranges);
    if (md.has_stats) {
      PT_REQUIRE(md.stats.species_mode < static_cast<int>(sorder),
                 "reconstruct_steps: archived stats name a non-spatial "
                 "species mode");
      data::denormalize_species_range(
          part, md.stats,
          spatial[static_cast<std::size_t>(md.stats.species_mode)].lo);
    }
    // Stitch along time: the time mode is last (slowest) and undistributed,
    // so this entry's local block is one contiguous slab of out's local
    // block — a pure memcpy, no inter-rank movement.
    if (slab > 0) {
      PT_CHECK(part.local().size() == slab * (ghi - glo),
               "reconstruct_steps: stitch slab size mismatch");
      std::memcpy(out.local().data() + (glo - step_lo) * slab,
                  part.local().data(),
                  part.local().size() * sizeof(double));
    }
  }
  return out;
}

}  // namespace ptucker::core
