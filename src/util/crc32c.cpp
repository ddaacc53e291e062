#include "util/crc32c.hpp"

#include <array>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace ptucker::util {

namespace {

/// Reflected Castagnoli polynomial (the iSCSI/ext4 CRC32C).
constexpr std::uint32_t kPoly = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? (c >> 1) ^ kPoly : c >> 1;
    }
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(std::uint32_t crc, const void* data,
                              std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (n-- != 0) {
    crc = kTable[(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)

bool crc32c_has_sse42() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
}

// The crc32 instruction implements the same reflected Castagnoli update as
// the table loop, so the two paths agree bit for bit.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::uint32_t crc, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  // Head bytes up to 8-byte alignment, so the word loads never split a line.
  while (n != 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  std::uint64_t c64 = crc;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // not a cast: no aliasing UB
    c64 = _mm_crc32_u64(c64, word);
  }
  crc = static_cast<std::uint32_t>(c64);
  while (n-- != 0) crc = _mm_crc32_u8(crc, *p++);
  return ~crc;
}

#else

bool crc32c_has_sse42() { return false; }

#endif

}  // namespace detail

std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t n) {
#if defined(__x86_64__)
  if (detail::crc32c_has_sse42()) return detail::crc32c_sse42(crc, data, n);
#endif
  return detail::crc32c_portable(crc, data, n);
}

}  // namespace ptucker::util
