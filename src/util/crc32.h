// CRC32-C (Castagnoli) checksums.
//
// Used to protect simulated persistent structures: SSC log records, map
// checkpoints, trace files, and (in integrity-testing mode) cached page
// payloads. The polynomial matches iSCSI/ext4 so test vectors are widely
// available.
//
// On x86-64 CPUs with SSE4.2, Crc32c runs on the `crc32` instruction, 8 bytes
// per step; everywhere else it runs Crc32cPortable, a byte-at-a-time table
// loop. Both compute the same function. The values are part of the simulated
// on-flash format (DESIGN.md §5d), so tests/util_test.cc checks the two paths
// against each other and tests/check_test.cc pins golden constants for the
// persistence layer's record and segment CRCs.

#ifndef FLASHTIER_UTIL_CRC32_H_
#define FLASHTIER_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace flashtier {

// Extends a running CRC32-C with `n` bytes at `data`. Pass 0 as the seed for
// a fresh checksum.
uint32_t Crc32c(uint32_t seed, const void* data, size_t n);

inline uint32_t Crc32c(const void* data, size_t n) { return Crc32c(0, data, n); }

// The table-driven fallback Crc32c uses when the CPU lacks SSE4.2. Exposed so
// tests can check it on machines where Crc32c takes the hardware path.
uint32_t Crc32cPortable(uint32_t seed, const void* data, size_t n);

}  // namespace flashtier

#endif  // FLASHTIER_UTIL_CRC32_H_
