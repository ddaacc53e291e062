#pragma once
/// \file collective_handle.hpp
/// \brief Two-phase (initiate/complete) machinery for nonblocking
/// collectives and point-to-point transfers.
///
/// Every nonblocking operation compiles, at initiation, into a deterministic
/// per-rank *script* of actions — eager sends, matched receives, and local
/// steps (accumulations, final copies) — that is exactly the send/recv
/// sequence the blocking algorithm in collectives.hpp would execute. The
/// script is then driven lazily:
///
///  - `istart` runs a nonblocking progress pass, so every leading send (ring
///    step 0, a leaf's tree contribution) is injected immediately;
///  - `test()` advances the script as far as already-arrived messages allow
///    and never blocks — this is what callers interleave with compute;
///  - `wait()` drives the script to completion, blocking only on receives
///    whose payload has not yet arrived.
///
/// Because the action order is fixed at initiation and only the *timing* of
/// receives varies, results are bitwise identical to the blocking path for
/// any interleaving of test()/wait() across ranks.
///
/// Tag discipline: each initiation takes one sequence number from its
/// communicator (Comm::alloc_async_seq) and derives all internal tags from
/// it, so several in-flight operations of the same kind on one communicator
/// never cross-match even though the mailbox matches only (context, src,
/// tag). Initiations are collective and must happen in the same order on
/// every member — the schedule verifier (Universe::verify_schedule) checks
/// exactly this, at initiation time, so a divergent async schedule is
/// reported at finalize instead of deadlocking inside wait().
///
/// A handle destroyed before completing records a leak in the Universe
/// (destructors must not throw); Runtime::run raises it at finalize with
/// the op named.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "mps/comm.hpp"

namespace ptucker::mps {

namespace detail {

/// Internal tag space for nonblocking collectives: below every fixed
/// reserved range (barrier rounds at -1000-k, the rooted gather and scatter
/// at kTagGather = -6000 and kTagScatter = -7000). Each initiation's
/// sequence number maps to a block of kAsyncSubTags tags so multi-phase ops
/// (all-reduce = reduce-scatter + all-gather) keep their phases distinct.
constexpr int kTagAsyncBase = -1'000'000;
constexpr std::uint64_t kAsyncSeqWrap = std::uint64_t{1} << 20;
constexpr int kAsyncSubTags = 8;

[[nodiscard]] inline int async_tag(std::uint64_t seq, int sub) {
  return kTagAsyncBase -
         static_cast<int>((seq % kAsyncSeqWrap) *
                          static_cast<std::uint64_t>(kAsyncSubTags)) -
         sub;
}

/// One step of an operation's script. Exactly one of produce / consume /
/// run is set, per kind.
struct AsyncAction {
  enum class Kind { Send, Recv, Local };
  Kind kind = Kind::Local;
  int peer = -1;  ///< comm rank (Send dest / Recv src)
  int tag = 0;
  std::size_t recv_bytes = 0;  ///< expected payload size (Recv)
  std::function<std::span<const std::byte>()> produce;   ///< Send payload
  std::function<void(std::span<const std::byte>)> consume;  ///< Recv sink
  std::function<void()> run;  ///< Local step
};

/// The in-flight state of one nonblocking operation.
struct AsyncOp {
  Comm comm;
  OpKind kind = OpKind::P2P;
  std::vector<AsyncAction> actions;
  std::size_t next = 0;  ///< first action not yet executed
  /// Typed scratch (accumulators, packed blocks) the action closures point
  /// into; kept alive exactly as long as the op.
  std::shared_ptr<void> state;
  std::chrono::steady_clock::time_point started;
  bool finish_recorded = false;

  [[nodiscard]] bool done() const { return next >= actions.size(); }

  /// Execute the script in order. Sends and local steps never block; a
  /// receive blocks only when \p blocking is true, otherwise an absent
  /// message stops the pass. Returns done().
  bool progress(bool blocking);

  void on_start();   ///< obs: mps.inflight++, stamp initiation time
  void on_finish();  ///< obs: mps.inflight--, record mps.overlap_us
};

/// Per-op typed scratch shared by the script closures. One struct serves
/// all five collectives; unused members stay empty.
template <class T>
struct RingState {
  std::vector<T> work;   ///< reduce-scatter working copy of the input
  std::vector<T> acc;    ///< tree-reduce accumulator
  std::vector<std::size_t> counts;
  std::vector<std::size_t> offsets;
};

}  // namespace detail

/// Completion handle for one nonblocking operation. Movable, not copyable.
/// Must reach wait() (or test() returning true) before destruction: a
/// handle dropped mid-flight is recorded as a leak and Runtime::run throws
/// at finalize naming the op.
class CollectiveHandle {
 public:
  /// Already-complete handle (also what moved-from handles become).
  CollectiveHandle() = default;
  explicit CollectiveHandle(std::unique_ptr<detail::AsyncOp> op)
      : op_(std::move(op)) {}

  CollectiveHandle(CollectiveHandle&&) noexcept = default;
  CollectiveHandle& operator=(CollectiveHandle&& other) noexcept {
    if (this != &other) {
      abandon();
      op_ = std::move(other.op_);
    }
    return *this;
  }
  CollectiveHandle(const CollectiveHandle&) = delete;
  CollectiveHandle& operator=(const CollectiveHandle&) = delete;
  ~CollectiveHandle() { abandon(); }

  /// Drive the operation to completion (blocking on missing payloads).
  void wait();

  /// Advance as far as already-arrived messages allow; never blocks.
  /// Returns true once the operation has completed.
  bool test();

  [[nodiscard]] bool done() const { return !op_ || op_->done(); }

 private:
  /// Destructor/assignment path: completed ops are freed, in-flight ops are
  /// recorded as leaks (cannot throw here).
  void abandon() noexcept;

  std::unique_ptr<detail::AsyncOp> op_;
};

namespace detail {
/// Stamp the op started, run the initiating nonblocking progress pass (all
/// leading sends go out here), and wrap it in a handle.
[[nodiscard]] CollectiveHandle launch(std::unique_ptr<AsyncOp> op);
}  // namespace detail

}  // namespace ptucker::mps
