#include "pario/posix_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/registry.hpp"
#include "pario/failpoint.hpp"
#include "util/error.hpp"

namespace ptucker::pario {

namespace {
std::string errno_text() { return std::strerror(errno); }
std::string errno_text(int err) { return std::strerror(err); }

/// Process-wide I/O counters ("pario.*"): every byte that crosses the
/// pread/pwrite/fsync boundary, regardless of which layer asked for it.
struct IoCounters {
  obs::Counter reads;
  obs::Counter read_bytes;
  obs::Counter writes;
  obs::Counter write_bytes;
  obs::Counter fsyncs;
  obs::Counter opens;
  obs::Counter retries;
  obs::Counter giveups;
};

IoCounters& io_counters() {
  static IoCounters* c = [] {
    auto* t = new IoCounters;
    t->reads = obs::registry().counter("pario.reads");
    t->read_bytes = obs::registry().counter("pario.read_bytes");
    t->writes = obs::registry().counter("pario.writes");
    t->write_bytes = obs::registry().counter("pario.write_bytes");
    t->fsyncs = obs::registry().counter("pario.fsyncs");
    t->opens = obs::registry().counter("pario.file_opens");
    t->retries = obs::registry().counter("pario.retries");
    t->giveups = obs::registry().counter("pario.giveups");
    return t;
  }();
  return *c;
}

std::mutex g_policy_mutex;
RetryPolicy g_policy;  // guarded by g_policy_mutex

/// Errnos worth retrying with backoff: the transient faults a networked or
/// overloaded filesystem produces. Everything else fails immediately.
bool is_transient(int err) { return err == EIO || err == EAGAIN; }

/// Sleep before retry attempt \p attempt (1-based) and count the retry.
void backoff(int attempt, const RetryPolicy& policy) {
  io_counters().retries.inc();
  if (policy.base_backoff_us == 0) return;
  const int shift = std::min(attempt - 1, 20);
  const std::uint64_t us = std::min(policy.base_backoff_us << shift,
                                    policy.max_backoff_us);
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

[[noreturn]] void throw_io_error(const char* op, const std::string& path,
                                 std::uint64_t offset, int err, int attempts) {
  io_counters().giveups.inc();
  std::ostringstream os;
  os << "pario: " << op << " " << path << " at offset " << offset
     << " failed: " << errno_text(err);
  if (attempts > 1) os << " (after " << attempts << " attempts)";
  throw IoError(os.str());
}
}  // namespace

void set_retry_policy(const RetryPolicy& policy) {
  const std::lock_guard<std::mutex> lock(g_policy_mutex);
  g_policy = policy;
}

RetryPolicy retry_policy() {
  const std::lock_guard<std::mutex> lock(g_policy_mutex);
  return g_policy;
}

File::~File() { close(); }

File::File(File&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

File File::open_read(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT(hicpp-vararg)
  PT_REQUIRE(fd >= 0, "pario: cannot open " << path << " for reading: "
                                            << errno_text());
  io_counters().opens.inc();
  return File(fd, path);
}

File File::create(const std::string& path) {
  const int fd =  // NOLINT(hicpp-vararg)
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  PT_REQUIRE(fd >= 0,
             "pario: cannot create " << path << ": " << errno_text());
  io_counters().opens.inc();
  return File(fd, path);
}

File File::open_write(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY);  // NOLINT(hicpp-vararg)
  PT_REQUIRE(fd >= 0, "pario: cannot open " << path << " for writing: "
                                            << errno_text());
  io_counters().opens.inc();
  return File(fd, path);
}

std::uint64_t File::size() const {
  PT_CHECK(valid(), "pario: size() on closed file");
  struct stat st {};
  PT_REQUIRE(::fstat(fd_, &st) == 0,
             "pario: fstat " << path_ << ": " << errno_text());
  return static_cast<std::uint64_t>(st.st_size);
}

void File::read_at(std::uint64_t offset, void* buf, std::size_t n) const {
  PT_CHECK(valid(), "pario: read_at on closed file");
  char* dst = static_cast<char*>(buf);
  faults::ReadCallPlan fp = faults::plan_read_call(path_, n);
  const RetryPolicy policy = retry_policy();
  int attempts = 1;  // transient-error budget for the current position
  std::size_t done = 0;
  while (done < n) {
    std::size_t want = n - done;
    faults::SyscallFault sf;
    if (fp.eio_left > 0) {
      --fp.eio_left;
      sf.err = EIO;
    } else {
      sf = faults::read_syscall_fault(path_, want);
    }
    ssize_t got;
    if (sf.err != 0) {
      got = -1;
      errno = sf.err;
    } else {
      if (sf.short_bytes != 0) want = std::min(want, sf.short_bytes);
      got = ::pread(fd_, dst + done, want, static_cast<off_t>(offset + done));
    }
    if (got < 0) {
      const int err = errno;
      if (err == EINTR) continue;  // nothing moved; just go again
      if (is_transient(err) && attempts < policy.max_attempts) {
        backoff(attempts++, policy);
        continue;
      }
      throw_io_error("read", path_, offset + done, err, attempts);
    }
    PT_REQUIRE(got > 0, "pario: truncated read of "
                            << path_ << " at offset " << (offset + done)
                            << " (wanted " << (n - done)
                            << " more bytes, file ends early)");
    done += static_cast<std::size_t>(got);
    attempts = 1;  // progress: reset the transient budget
  }
  faults::apply_read_call(fp, buf, n);
  io_counters().reads.inc();
  io_counters().read_bytes.add(n);
}

void File::write_at(std::uint64_t offset, const void* buf,
                    std::size_t n) const {
  PT_CHECK(valid(), "pario: write_at on closed file");
  const char* src = static_cast<const char*>(buf);
  const faults::OpGate gate = faults::write_op_gate(path_, n);
  if (gate.fail_errno != 0) {
    throw_io_error("write", path_, offset, gate.fail_errno, 1);
  }
  // A simulated crash: only gate.allowed bytes land and we return as if
  // the full write succeeded — no caller survives a real crash to see it.
  const std::size_t n_eff = std::min(n, gate.allowed);
  faults::WriteCallPlan fp = faults::plan_write_call(path_);
  const RetryPolicy policy = retry_policy();
  int attempts = 1;
  std::size_t done = 0;
  while (done < n_eff) {
    std::size_t want = n_eff - done;
    faults::SyscallFault sf;
    if (fp.eio_left > 0) {
      --fp.eio_left;
      sf.err = EIO;
    } else {
      sf = faults::write_syscall_fault(path_, want);
    }
    ssize_t put;
    if (sf.err != 0) {
      put = -1;
      errno = sf.err;
    } else {
      if (sf.short_bytes != 0) want = std::min(want, sf.short_bytes);
      put = ::pwrite(fd_, src + done, want, static_cast<off_t>(offset + done));
    }
    if (put < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      if (is_transient(err) && attempts < policy.max_attempts) {
        backoff(attempts++, policy);
        continue;
      }
      throw_io_error("write", path_, offset + done, err, attempts);
    }
    PT_REQUIRE(put > 0,
               "pario: short write to " << path_ << ": " << errno_text());
    done += static_cast<std::size_t>(put);
    attempts = 1;
  }
  io_counters().writes.inc();
  io_counters().write_bytes.add(n);
}

void File::truncate(std::uint64_t length) const {
  PT_CHECK(valid(), "pario: truncate on closed file");
  if (!faults::truncate_op_allowed(path_)) return;  // post-crash: dropped
  while (::ftruncate(fd_, static_cast<off_t>(length)) != 0) {
    if (errno == EINTR) continue;
    throw_io_error("ftruncate", path_, length, errno, 1);
  }
}

void File::sync() const {
  PT_CHECK(valid(), "pario: sync on closed file");
  if (!faults::sync_op_allowed(path_)) return;  // post-crash: dropped
  // A failed fsync is never retried: after it fails, dirty pages may
  // already have been dropped, so a succeeding retry proves nothing.
  while (::fsync(fd_) != 0) {
    if (errno == EINTR) continue;
    throw_io_error("fsync", path_, 0, errno, 1);
  }
  io_counters().fsyncs.inc();
}

void File::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace ptucker::pario
