#pragma once
/// \file failpoint.hpp
/// \brief Deterministic fault injection at the pread/pwrite/fsync boundary.
///
/// A shared cluster filesystem produces failures that unit tests on a local
/// disk never see: interrupted syscalls (EINTR), short transfers, transient
/// EIO, ENOSPC, torn writes from a crashed writer, and silent bit rot. This
/// substrate lets tests inject every one of those classes *deterministically*
/// (all decisions are pure functions of a seed and per-site decision
/// counters) right where they would occur — inside pario::File — so the
/// retry, checksum, and degradation machinery above can be exercised
/// end to end.
///
/// Always built in. While no plan is armed, every hook returns after one
/// acquire load of the active plan, and behavior and bytes are identical to
/// an unhooked File.
///
/// The "crash" model: write-class ops (write_at / sync / truncate) on
/// matching files are counted from arm(); at op crash_at_op the op transfers
/// only crash_keep_bytes (writes) or does nothing (sync/truncate), and every
/// later write-class effect is silently dropped while execution continues.
/// The file is left exactly as a real crash at that boundary would leave
/// it — the process just happens to survive to assert on the wreckage.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

namespace ptucker::pario::faults {

/// One armed fault schedule. Probabilities are evaluated against a
/// splitmix64 stream indexed by atomic decision counters, so a
/// single-threaded replay with the same seed is exactly reproducible and
/// concurrent callers draw distinct values.
struct FaultPlan {
  std::uint64_t seed = 1;
  /// Only files whose path contains this substring are faulted ("" = all).
  std::string path_substr;

  // --- probabilistic classes, each in [0, 1] ---
  double p_read_eintr = 0.0;    ///< per pread: fail once with EINTR
  double p_read_short = 0.0;    ///< per pread: transfer at most half the bytes
  double p_read_eio = 0.0;      ///< per read_at call: transient-EIO streak
  double p_read_bitflip = 0.0;  ///< per read_at call: flip one returned bit
  double p_write_eintr = 0.0;   ///< per pwrite: fail once with EINTR
  double p_write_short = 0.0;   ///< per pwrite: transfer at most half
  double p_write_eio = 0.0;     ///< per write_at call: transient-EIO streak

  /// Bit flips only hit read_at calls of at least this many bytes, so a test
  /// can corrupt payloads while leaving small header reads parseable.
  std::size_t bitflip_min_bytes = 0;

  /// Length of an injected transient-EIO streak: the syscall fails this many
  /// times, then succeeds. Size it against RetryPolicy::max_attempts to
  /// exercise both recovery (streak < budget) and giveup (streak >= budget).
  int eio_streak = 2;

  // --- one-shot write-class ops (0-based index since arm(); -1 = never) ---
  std::int64_t enospc_at_op = -1;  ///< this op fails loudly with ENOSPC
  std::int64_t crash_at_op = -1;   ///< "process dies" at this op (see above)
  /// Bytes of the crashing write that still land (a torn write). Ignored
  /// when the crashing op is a sync/truncate.
  std::uint64_t crash_keep_bytes = 0;
};

/// Per-read_at-call decisions, drawn once at entry.
struct ReadCallPlan {
  static constexpr std::uint64_t kNoFlip =
      std::numeric_limits<std::uint64_t>::max();
  int eio_left = 0;                  ///< EIOs to inject before preads succeed
  std::uint64_t flip_bit = kNoFlip;  ///< bit index (< 8n) to flip, or kNoFlip
};

/// Per-write_at-call decisions.
struct WriteCallPlan {
  int eio_left = 0;
};

/// Per-syscall fault: err != 0 makes this pread/pwrite fail with that errno;
/// otherwise short_bytes != 0 caps this syscall's transfer size.
struct SyscallFault {
  int err = 0;
  std::size_t short_bytes = 0;
};

/// Gate for one write-class op: how much of it is allowed to take effect.
struct OpGate {
  static constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
  std::size_t allowed = kAll;  ///< bytes that may land (0 after a crash)
  int fail_errno = 0;          ///< nonzero: fail the whole op loudly (ENOSPC)
};

/// Install \p plan and zero all counters. Process-wide; tests serialize.
void arm(const FaultPlan& plan);
/// Remove the active plan (every hook becomes a no-op again).
void disarm();
[[nodiscard]] bool armed();

/// Write-class ops (write_at/sync/truncate on matching files) seen since
/// arm(). A probe run under a neutral plan measures this to size the
/// crash-at-every-boundary torture sweep.
[[nodiscard]] std::uint64_t write_class_ops();
/// Total faults injected since arm() (all classes).
[[nodiscard]] std::uint64_t injected();
/// True once crash_at_op has been reached.
[[nodiscard]] bool crashed();

[[nodiscard]] ReadCallPlan plan_read_call(const std::string& path,
                                          std::size_t n);
[[nodiscard]] SyscallFault read_syscall_fault(const std::string& path,
                                              std::size_t want);
/// Apply the call plan's bit flip (if any) to the filled buffer.
void apply_read_call(const ReadCallPlan& plan, void* buf, std::size_t n);

[[nodiscard]] WriteCallPlan plan_write_call(const std::string& path);
[[nodiscard]] SyscallFault write_syscall_fault(const std::string& path,
                                               std::size_t want);

/// Count one write-class op of \p n bytes and decide its fate.
[[nodiscard]] OpGate write_op_gate(const std::string& path, std::size_t n);
/// Count one sync/truncate op; false = silently drop it (post-crash).
[[nodiscard]] bool sync_op_allowed(const std::string& path);
[[nodiscard]] bool truncate_op_allowed(const std::string& path);

/// RAII arm/disarm for tests.
class Guard {
 public:
  explicit Guard(const FaultPlan& plan) { arm(plan); }
  ~Guard() { disarm(); }
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;
};

}  // namespace ptucker::pario::faults
