#include "util/checksum.hpp"

#include <array>

namespace lon {
namespace {

constexpr std::uint32_t kAdlerMod = 65521;  // largest prime below 2^16

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slicing-by-8 tables: tables[0] is the classic byte-at-a-time table, and
// tables[k][i] is the CRC of byte i followed by k zero bytes, so eight input
// bytes fold into the running CRC with eight independent lookups.
CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t c = tables[k - 1][i];
      tables[k][i] = tables[0][c & 0xff] ^ (c >> 8);
    }
  }
  return tables;
}

const CrcTables& crc_tables() {
  static const CrcTables tables = make_crc_tables();
  return tables;
}

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t adler32(std::span<const std::uint8_t> data, std::uint32_t adler) {
  std::uint32_t a = adler & 0xffff;
  std::uint32_t b = (adler >> 16) & 0xffff;
  std::size_t i = 0;
  while (i < data.size()) {
    // 5552 is the largest n such that 255*n*(n+1)/2 + (n+1)*(kAdlerMod-1)
    // fits in 32 bits; defer the modulo until then (zlib's trick).
    std::size_t chunk = std::min<std::size_t>(5552, data.size() - i);
    for (std::size_t j = 0; j < chunk; ++j) {
      a += data[i + j];
      b += a;
    }
    a %= kAdlerMod;
    b %= kAdlerMod;
    i += chunk;
  }
  return (b << 16) | a;
}

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t crc) {
  const CrcTables& t = crc_tables();
  std::uint32_t c = crc ^ 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace lon
