// CRC-32 (IEEE 802.3 polynomial, reflected). Used to checksum log record
// headers, run tables in leader pages, and replicated boot structures.
//
// The kernel is slicing-by-8: eight 256-entry tables fold 8 input bytes per
// step, and a bytewise loop finishes the tail. It returns exactly the CRC of
// the classic bytewise algorithm for every input, seed and split point, so
// checksums already on disk stay valid.

#ifndef CEDAR_UTIL_CRC32_H_
#define CEDAR_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace cedar {

// Computes the CRC-32 of `data`, optionally continuing from a previous crc
// (pass the previous return value to chain buffers).
std::uint32_t Crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed = 0);

}  // namespace cedar

#endif  // CEDAR_UTIL_CRC32_H_
