#pragma once
/// \file posix_file.hpp
/// \brief Thin RAII wrapper over POSIX positioned file I/O (pread/pwrite).
///
/// Every pario container is accessed through positioned reads and writes at
/// rank-computed byte offsets, so any number of rank-threads can touch the
/// same file concurrently without a shared seek pointer, locks, or any
/// inter-rank coordination beyond two barriers on the write path.

#include <cstddef>
#include <cstdint>
#include <string>

namespace ptucker::pario {

/// Bounded exponential backoff for *transient* syscall errors (EIO, EAGAIN)
/// — the hiccups a shared cluster filesystem produces under load. EINTR is
/// not budgeted here: an interrupted syscall moved no data and is always
/// retried immediately. Non-transient errnos (ENOSPC, EBADF, ...) fail
/// immediately with IoError.
///
/// Each syscall site gets max_attempts total tries; attempt k sleeps
/// base_backoff_us * 2^(k-1), capped at max_backoff_us, before retrying.
/// Retries increment the `pario.retries` counter; an exhausted budget
/// increments `pario.giveups` and throws IoError with errno_text().
struct RetryPolicy {
  int max_attempts = 4;
  std::uint64_t base_backoff_us = 200;
  std::uint64_t max_backoff_us = 10000;
};

/// Install the process-wide retry policy (thread-safe).
void set_retry_policy(const RetryPolicy& policy);
[[nodiscard]] RetryPolicy retry_policy();

class File {
 public:
  File() = default;
  ~File();
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// Open an existing file for reading; throws InvalidArgument on failure.
  [[nodiscard]] static File open_read(const std::string& path);
  /// Create (truncating if present) for writing.
  [[nodiscard]] static File create(const std::string& path);
  /// Open an existing file for positioned writes (no truncation).
  [[nodiscard]] static File open_write(const std::string& path);

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t size() const;

  /// Read exactly \p n bytes at \p offset. EINTR is retried immediately;
  /// transient errnos are retried per the RetryPolicy; other syscall
  /// failures throw IoError with errno_text(). A file that simply ends
  /// early (pread returns 0) throws InvalidArgument ("truncated read").
  void read_at(std::uint64_t offset, void* buf, std::size_t n) const;
  /// Write exactly \p n bytes at \p offset (extends the file as needed).
  void write_at(std::uint64_t offset, const void* buf, std::size_t n) const;
  /// Set the file length (used by the header writer so the container has
  /// its full size even when trailing blocks are empty).
  void truncate(std::uint64_t length) const;

  /// Flush written data to stable storage (fsync). The archive appender
  /// syncs the entry payload before committing the table so a crash between
  /// the two never yields a committed-but-unwritten entry.
  void sync() const;

  void close();

 private:
  File(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  int fd_ = -1;
  std::string path_;  // for error messages
};

}  // namespace ptucker::pario
