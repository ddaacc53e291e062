#pragma once
/// \file error.hpp
/// \brief Error-checking macros and exception types used across ptucker.
///
/// All invariant violations throw (never abort) so that the thread-based
/// message-passing runtime can unwind cleanly: a throwing rank triggers a
/// universe-wide abort that wakes every blocked rank.

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace ptucker {

/// Base class for all ptucker errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown on precondition/argument violations (bad dims, bad grid, ...).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown on internal invariant violations (bugs).
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

/// Thrown by pario::File when a syscall fails for real — a -1 return with a
/// non-transient errno, or a transient one (EIO/EAGAIN) after the
/// RetryPolicy budget is exhausted. Always carries errno_text().
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// Thrown when a stored CRC32C does not match the bytes read back — silent
/// bit rot or a torn write. Names the file, block/region, and byte offset.
class ChecksumError : public Error {
 public:
  explicit ChecksumError(const std::string& what) : Error(what) {}
};

/// Thrown by archive_append_model when the PTA1 entry table is full.
/// Derives from InvalidArgument because the condition is caller-resolvable:
/// recreate the archive with a larger entry_capacity.
class ArchiveFull : public InvalidArgument {
 public:
  explicit ArchiveFull(const std::string& what) : InvalidArgument(what) {}
};

/// serve: the requested archive entry was poisoned by an earlier read
/// failure and is quarantined until the archive is repaired/rewritten.
class QuarantinedError : public Error {
 public:
  explicit QuarantinedError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* kind, const char* expr,
                                             const char* file, int line,
                                             const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  if (std::string(kind) == "PT_REQUIRE") throw InvalidArgument(os.str());
  throw InternalError(os.str());
}
}  // namespace detail

namespace util {

/// a * b with an overflow check: throws InvalidArgument naming \p what
/// instead of silently wrapping. Used by the pario containers wherever a
/// byte offset is derived from untrusted (or caller-supplied) dims, so a
/// hostile header or an absurd shape fails loudly before any allocation or
/// file arithmetic happens.
[[nodiscard]] inline std::uint64_t checked_mul(std::uint64_t a,
                                               std::uint64_t b,
                                               const char* what) {
  if (b != 0 && a > std::numeric_limits<std::uint64_t>::max() / b) {
    throw InvalidArgument(std::string(what) +
                          ": u64 overflow in size/offset multiply");
  }
  return a * b;
}

/// a + b with the matching overflow check (offset accumulation).
[[nodiscard]] inline std::uint64_t checked_add(std::uint64_t a,
                                               std::uint64_t b,
                                               const char* what) {
  if (a > std::numeric_limits<std::uint64_t>::max() - b) {
    throw InvalidArgument(std::string(what) +
                          ": u64 overflow in size/offset add");
  }
  return a + b;
}

}  // namespace util

}  // namespace ptucker

/// Precondition check on user-supplied arguments; throws InvalidArgument.
#define PT_REQUIRE(expr, msg)                                                \
  do {                                                                       \
    if (!(expr)) {                                                           \
      ::std::ostringstream pt_os_;                                           \
      pt_os_ << msg; /* NOLINT */                                            \
      ::ptucker::detail::throw_check_failure("PT_REQUIRE", #expr, __FILE__,  \
                                             __LINE__, pt_os_.str());        \
    }                                                                        \
  } while (0)

/// Internal invariant check; throws InternalError.
#define PT_CHECK(expr, msg)                                                  \
  do {                                                                       \
    if (!(expr)) {                                                           \
      ::std::ostringstream pt_os_;                                           \
      pt_os_ << msg; /* NOLINT */                                            \
      ::ptucker::detail::throw_check_failure("PT_CHECK", #expr, __FILE__,    \
                                             __LINE__, pt_os_.str());        \
    }                                                                        \
  } while (0)
