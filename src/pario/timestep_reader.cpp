#include "pario/timestep_reader.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <filesystem>

#include "pario/block_file.hpp"

namespace ptucker::pario {

TimestepReader::TimestepReader(std::string dir, std::size_t max_cached_files)
    : dir_(std::move(dir)), max_cached_(std::max<std::size_t>(1, max_cached_files)) {
  namespace fs = std::filesystem;
  PT_REQUIRE(fs::is_directory(dir_),
             "TimestepReader: " << dir_ << " is not a directory");
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".ptb" || ext == ".ptt") {
      paths_.push_back(entry.path().string());
    }
  }
  PT_REQUIRE(!paths_.empty(),
             "TimestepReader: no .ptb/.ptt step files in " << dir_);
  std::sort(paths_.begin(), paths_.end());
  // Validate every header once through the cache; after the scan the LRU
  // holds the last max_cached_ steps, so a window starting anywhere else
  // pays one re-open per step on first touch and zero afterwards.
  for (std::size_t t = 0; t < paths_.size(); ++t) {
    const std::shared_ptr<const BlockFile> file = step_file(t);
    if (t == 0) {
      step_dims_ = file->dims();
    } else {
      PT_REQUIRE(file->dims() == step_dims_,
                 "TimestepReader: " << paths_[t]
                                    << " dims differ from the first step");
    }
  }
}

TimestepReader::~TimestepReader() = default;

namespace detail {

std::optional<StepFileSig> stat_sig(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  return StepFileSig{static_cast<std::uint64_t>(st.st_dev),
                     static_cast<std::uint64_t>(st.st_ino),
                     static_cast<std::uint64_t>(st.st_size),
                     static_cast<std::int64_t>(st.st_mtim.tv_sec),
                     static_cast<std::int64_t>(st.st_mtim.tv_nsec)};
}

}  // namespace detail

std::shared_ptr<const BlockFile> TimestepReader::step_file(
    std::size_t t) const {
  PT_REQUIRE(t < paths_.size(), "TimestepReader: step " << t
                                                        << " out of range");
  // Revalidation stat happens before taking the lock, so concurrent hits
  // are not serialized behind each other's filesystem metadata round-trip
  // (the same reason the miss path opens with the lock dropped).
  const std::optional<detail::StepFileSig> sig = detail::stat_sig(paths_[t]);
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto hit = cache_.find(t);
    if (hit != cache_.end()) {
      // Revalidate before serving: a step file rewritten (or replaced by
      // rename) since it was parsed must not be read through the stale
      // header — the in-situ case where the solver is still producing.
      if (sig == hit->second->sig) {
        lru_.splice(lru_.begin(), lru_, hit->second);  // bump to front
        return hit->second->file;
      }
      lru_.erase(hit->second);  // stale: evict and fall through to re-open
      cache_.erase(hit);
    }
  }
  // Miss: open + parse with the lock dropped, so concurrent hits on other
  // steps are not serialized behind this step's disk I/O. Another thread
  // may race us to the same step; re-check before inserting and keep its
  // entry (one redundant open, counted, then discarded).
  PT_REQUIRE(sig.has_value(), "TimestepReader: cannot stat " << paths_[t]);
  auto file = std::make_shared<const BlockFile>(BlockFile::open(paths_[t]));
  // Every step — at scan time and on any later re-open (a file rewritten
  // under a live reader) — must match the dims of the first step.
  PT_REQUIRE(step_dims_.empty() || file->dims() == step_dims_,
             "TimestepReader: " << paths_[t]
                                << " dims differ from the first step");
  std::lock_guard<std::mutex> lock(cache_mutex_);
  ++file_opens_;
  const auto hit = cache_.find(t);
  if (hit != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, hit->second);
    return hit->second->file;
  }
  lru_.push_front(CacheEntry{t, file, *sig});
  cache_[t] = lru_.begin();
  while (lru_.size() > max_cached_) {
    cache_.erase(lru_.back().step);
    lru_.pop_back();
  }
  return file;
}

std::size_t TimestepReader::cached_files() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return lru_.size();
}

std::size_t TimestepReader::file_opens() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return file_opens_;
}

tensor::Tensor TimestepReader::read_step(
    std::size_t t, const std::vector<util::Range>& ranges) const {
  return step_file(t)->read_ranges(ranges);
}

dist::DistTensor TimestepReader::read_window(
    std::shared_ptr<mps::CartGrid> grid, std::size_t first,
    std::size_t count) const {
  PT_REQUIRE(grid != nullptr, "read_window: null grid");
  const std::size_t order = step_dims_.size();
  PT_REQUIRE(grid->order() == static_cast<int>(order) + 1,
             "read_window: grid order " << grid->order()
                                        << " != step order + 1");
  PT_REQUIRE(count >= 1 && first + count <= paths_.size(),
             "read_window: steps [" << first << ", " << (first + count)
                                    << ") out of range");
  tensor::Dims dims = step_dims_;
  dims.push_back(count);
  dist::DistTensor x(std::move(grid), std::move(dims));

  const int time_mode = static_cast<int>(order);
  std::vector<util::Range> spatial(order);
  std::size_t slab = 1;  // elements of one local time slice
  for (std::size_t n = 0; n < order; ++n) {
    spatial[n] = x.mode_range(static_cast<int>(n));
    slab *= spatial[n].size();
  }
  if (slab == 0) return x;

  // Time is the last (slowest) mode, so each local time slice is one
  // contiguous slab of the local block: pread each step straight into it.
  const util::Range my_time = x.mode_range(time_mode);
  for (std::size_t ti = my_time.lo; ti < my_time.hi; ++ti) {
    step_file(first + ti)->read_ranges_into(
        spatial, x.local().span().subspan((ti - my_time.lo) * slab, slab));
  }
  return x;
}

}  // namespace ptucker::pario
