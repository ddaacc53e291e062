#include "mps/universe.hpp"

#include <algorithm>
#include <sstream>

namespace ptucker::mps {

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::P2P: return "p2p";
    case OpKind::Barrier: return "barrier";
    case OpKind::Broadcast: return "broadcast";
    case OpKind::Reduce: return "reduce";
    case OpKind::AllReduce: return "all-reduce";
    case OpKind::AllGather: return "all-gather";
    case OpKind::ReduceScatter: return "reduce-scatter";
    case OpKind::Gather: return "gather";
    case OpKind::Scatter: return "scatter";
    case OpKind::kCount: break;
  }
  return "?";
}

namespace {
thread_local OpKind t_current_op = OpKind::P2P;
}

OpKind current_op() { return t_current_op; }
void set_current_op(OpKind kind) { t_current_op = kind; }

Universe::Universe(int world_size) : world_size_(world_size) {
  PT_REQUIRE(world_size >= 1, "world size must be >= 1, got " << world_size);
  mailboxes_.reserve(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>(this));
  }
  stats_.resize(static_cast<std::size_t>(world_size));
  schedules_.resize(static_cast<std::size_t>(world_size));
  // Room for the world communicator plus a grid's two per mode, up to
  // order 7, so the rank threads do not allocate fingerprints.
  for (auto& s : schedules_) s.contexts.reserve(16);
}

Mailbox& Universe::mailbox(int world_rank) {
  PT_CHECK(world_rank >= 0 && world_rank < world_size_,
           "mailbox rank " << world_rank << " out of range");
  return *mailboxes_[static_cast<std::size_t>(world_rank)];
}

void Universe::abort(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(abort_mutex_);
    if (!aborted_.load(std::memory_order_acquire)) {
      abort_reason_ = reason;
    }
  }
  aborted_.store(true, std::memory_order_release);
  for (auto& mb : mailboxes_) mb->interrupt();
}

std::string Universe::abort_reason() const {
  std::lock_guard<std::mutex> lock(abort_mutex_);
  return abort_reason_;
}

void Universe::clear_abort() {
  std::lock_guard<std::mutex> lock(abort_mutex_);
  aborted_.store(false, std::memory_order_release);
  abort_reason_.clear();
}

std::uint64_t Universe::register_context(std::uint64_t parent,
                                         std::uint64_t seq, int color) {
  std::lock_guard<std::mutex> lock(context_mutex_);
  auto key = std::make_tuple(parent, seq, color);
  auto it = context_registry_.find(key);
  if (it != context_registry_.end()) return it->second;
  const std::uint64_t ctx = next_context_++;
  context_registry_.emplace(key, ctx);
  return ctx;
}

CommStats& Universe::stats(int world_rank) {
  return stats_[static_cast<std::size_t>(world_rank)].stats;
}

const CommStats& Universe::stats(int world_rank) const {
  return stats_[static_cast<std::size_t>(world_rank)].stats;
}

CommStats Universe::total_stats() const {
  CommStats total;
  for (const auto& s : stats_) total += s.stats;
  return total;
}

CommStats Universe::max_stats() const {
  CommStats out;
  for (const auto& s : stats_) {
    out.messages_sent = std::max(out.messages_sent, s.stats.messages_sent);
    out.bytes_sent = std::max(out.bytes_sent, s.stats.bytes_sent);
    for (int i = 0; i < CommStats::kNumOps; ++i) {
      out.op_messages[i] =
          std::max(out.op_messages[i], s.stats.op_messages[i]);
      out.op_bytes[i] = std::max(out.op_bytes[i], s.stats.op_bytes[i]);
    }
  }
  return out;
}

void Universe::reset_stats() {
  for (auto& s : stats_) s.stats.clear();
}

namespace {

/// The entry of \p context in one rank's fingerprints, or end().
template <class Fingerprints>
auto find_context(Fingerprints& contexts, std::uint64_t context) {
  return std::find_if(contexts.begin(), contexts.end(),
                      [&](const auto& e) { return e.first == context; });
}

ContextFingerprint& context_entry(ScheduleFingerprints& contexts,
                                  std::uint64_t context) {
  const auto it = find_context(contexts, context);
  if (it != contexts.end()) return it->second;
  return contexts.emplace_back(context, ContextFingerprint{}).second;
}

}  // namespace

void Universe::fingerprint_seed(int world_rank, std::uint64_t context) {
  context_entry(schedules_[static_cast<std::size_t>(world_rank)].contexts,
                context);
}

void Universe::fingerprint_record(int world_rank, std::uint64_t context,
                                  OpKind kind, std::uint64_t bytes) {
  context_entry(schedules_[static_cast<std::size_t>(world_rank)].contexts,
                context)
      .mix(kind, bytes);
}

void Universe::verify_schedule() const {
  // Require every member of a context to match the lowest rank that saw
  // it. Ranks that never saw a context (e.g. the other color of a split)
  // are legitimately absent and not compared.
  for (int r = 0; r < world_size_; ++r) {
    for (const auto& [ctx, fp] :
         schedules_[static_cast<std::size_t>(r)].contexts) {
      int ref_rank = 0;
      auto ref = schedules_[0].contexts.end();
      for (; ref_rank < r; ++ref_rank) {
        const auto& ref_contexts =
            schedules_[static_cast<std::size_t>(ref_rank)].contexts;
        ref = find_context(ref_contexts, ctx);
        if (ref != ref_contexts.end()) break;
      }
      if (ref_rank == r) continue;
      const ContextFingerprint& ref_fp = ref->second;
      if (fp == ref_fp) continue;
      const auto describe = [](std::ostringstream& out,
                               const ContextFingerprint& f) {
        out << f.calls << " collective call(s)";
        if (f.calls > 0) {
          out << ", last " << op_name(f.last_kind) << " of " << f.last_bytes
              << " bytes";
        }
      };
      std::ostringstream os;
      os << "collective schedule mismatch on communicator context " << ctx
         << ": rank " << ref_rank << " issued ";
      describe(os, ref_fp);
      os << " (hash " << std::hex << ref_fp.hash << std::dec
         << ") but rank " << r << " issued ";
      describe(os, fp);
      os << " (hash " << std::hex << fp.hash << std::dec
         << ") — ranks of one communicator must call the same collectives "
            "in the same order with the same payload sizes";
      throw ScheduleMismatchError(os.str());
    }
  }
}

void Universe::reset_schedule() {
  for (auto& s : schedules_) s.contexts.clear();
}

const ScheduleFingerprints& Universe::schedule_fingerprints(
    int world_rank) const {
  return schedules_[static_cast<std::size_t>(world_rank)].contexts;
}

void Universe::note_async_leak(const std::string& description) {
  std::lock_guard<std::mutex> lock(async_leak_mutex_);
  async_leaks_.push_back(description);
}

void Universe::clear_async_leaks() {
  std::lock_guard<std::mutex> lock(async_leak_mutex_);
  async_leaks_.clear();
}

void Universe::assert_no_async_leaks() const {
  std::lock_guard<std::mutex> lock(async_leak_mutex_);
  if (async_leaks_.empty()) return;
  std::ostringstream os;
  os << async_leaks_.size()
     << " nonblocking collective handle(s) destroyed while still in flight"
        " — every CollectiveHandle must reach wait() or test()==true: ";
  for (std::size_t i = 0; i < async_leaks_.size(); ++i) {
    if (i > 0) os << "; ";
    os << async_leaks_[i];
  }
  throw InternalError(os.str());
}

void Universe::assert_quiescent() const {
  for (int r = 0; r < world_size_; ++r) {
    const std::size_t pending = mailboxes_[static_cast<std::size_t>(r)]->pending();
    PT_CHECK(pending == 0, "mailbox of rank "
                               << r << " still holds " << pending
                               << " message(s) after the parallel region — "
                                  "likely a tag mismatch or missing recv");
  }
}

}  // namespace ptucker::mps
