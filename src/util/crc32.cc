#include "src/util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace cedar {
namespace {

// The word loop below reads 8 bytes with one memcpy and takes byte k of the
// input from bits [8k, 8k+8) of the word, which is the little-endian layout.
static_assert(std::endian::native == std::endian::little,
              "Crc32's slicing-by-8 loop assumes a little-endian host");

constexpr std::uint32_t kPolynomial = 0xEDB88320u;

using Table = std::array<std::uint32_t, 256>;

// kTables[0] is the classic bytewise table. kTables[k][b] is the CRC
// contribution of byte b followed by k zero bytes, so eight lookups fold
// one 8-byte word into the running CRC.
constexpr std::array<Table, 8> MakeTables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolynomial : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<Table, 8> kTables = MakeTables();

}  // namespace

std::uint32_t Crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    word ^= crc;
    crc = kTables[7][word & 0xFFu] ^ kTables[6][(word >> 8) & 0xFFu] ^
          kTables[5][(word >> 16) & 0xFFu] ^ kTables[4][(word >> 24) & 0xFFu] ^
          kTables[3][(word >> 32) & 0xFFu] ^ kTables[2][(word >> 40) & 0xFFu] ^
          kTables[1][(word >> 48) & 0xFFu] ^ kTables[0][word >> 56];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xFFu];
  }
  return ~crc;
}

}  // namespace cedar
