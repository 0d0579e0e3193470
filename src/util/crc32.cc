#include "src/util/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace flashtier {
namespace {

// Reflected CRC32-C polynomial.
constexpr uint32_t kPoly = 0x82f63b78u;

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(uint32_t seed, const void* data,
                                                        size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~seed;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++p) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  return ~crc32;
}
#endif

}  // namespace

uint32_t Crc32cPortable(uint32_t seed, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(uint32_t seed, const void* data, size_t n) {
#if defined(__x86_64__)
  static const bool kHardware = (__builtin_cpu_init(), __builtin_cpu_supports("sse4.2"));
  if (kHardware) {
    return Crc32cSse42(seed, data, n);
  }
#endif
  return Crc32cPortable(seed, data, n);
}

}  // namespace flashtier
