#pragma once
/// \file crc32c.hpp
/// \brief CRC32C (Castagnoli) checksum used by the pario containers to
/// detect silent bit rot and torn writes in block payloads.
///
/// The incremental form composes: crc32c(crc32c(0, a), b) equals
/// crc32c(0, a || b), which is what lets the blocked readers accumulate a
/// block's checksum across the mode-0 runs they pread without ever
/// materializing the block contiguously.
///
/// `crc32c` picks its path once per process: on x86-64 CPUs with SSE4.2 it
/// runs the `crc32` instruction eight bytes at a time (about 5 GB/s on one
/// Xeon core); everywhere else it runs the bytewise table loop
/// (about 0.3 GB/s). Both paths return the same value for every input.

#include <cstddef>
#include <cstdint>

namespace ptucker::util {

/// Extend \p crc over \p n bytes of \p data. Seed with 0 for a fresh
/// checksum; feed the previous result to continue one.
[[nodiscard]] std::uint32_t crc32c(std::uint32_t crc, const void* data,
                                   std::size_t n);

namespace detail {

/// The bytewise table loop: the fallback of `crc32c` and the reference the
/// hardware path is tested against.
[[nodiscard]] std::uint32_t crc32c_portable(std::uint32_t crc,
                                            const void* data, std::size_t n);

/// True when this CPU can run `crc32c_sse42` (always false off x86-64).
[[nodiscard]] bool crc32c_has_sse42();

#if defined(__x86_64__)
/// The SSE4.2 path. Call it only when `crc32c_has_sse42()` is true.
[[nodiscard]] std::uint32_t crc32c_sse42(std::uint32_t crc, const void* data,
                                         std::size_t n);
#endif

}  // namespace detail

}  // namespace ptucker::util
