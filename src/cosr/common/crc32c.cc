#include "cosr/common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define COSR_CRC32C_X86 1
#endif

namespace cosr {

namespace {

/// The reflected Castagnoli polynomial.
constexpr std::uint32_t kPolynomial = 0x82F63B78u;

/// Slicing-by-8 tables: kTables[0] is the byte-at-a-time table, and
/// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups fold in eight bytes at once.
using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32cTables MakeTables() {
  Crc32cTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolynomial : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Crc32cTables kTables = MakeTables();

std::uint32_t LoadLe32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

#ifdef COSR_CRC32C_X86
__attribute__((target("sse4.2"))) std::uint32_t Crc32cSse42(
    const std::uint8_t* data, std::size_t size) {
  std::uint64_t crc = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    std::uint64_t word;
    std::memcpy(&word, data, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  // At most 7 bytes remain: one 4-, one 2- and one 1-byte step.
  auto crc32 = static_cast<std::uint32_t>(crc);
  if (size & 4) {
    std::uint32_t word;
    std::memcpy(&word, data, 4);
    crc32 = _mm_crc32_u32(crc32, word);
    data += 4;
  }
  if (size & 2) {
    std::uint16_t half;
    std::memcpy(&half, data, 2);
    crc32 = _mm_crc32_u16(crc32, half);
    data += 2;
  }
  if (size & 1) crc32 = _mm_crc32_u8(crc32, *data);
  return crc32 ^ 0xFFFFFFFFu;
}

bool CpuHasSse42() {
  __builtin_cpu_init();  // in case this runs before libgcc's constructor
  return __builtin_cpu_supports("sse4.2");
}

// Set during static initialization. Before that it reads false, and calls
// take the portable path, which returns the same values. A plain load: a
// function-local static would add a guard check to every call.
const bool kHaveSse42 = CpuHasSse42();
#endif

}  // namespace

std::uint32_t Crc32cPortable(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = crc ^ LoadLe32(data);
    const std::uint32_t hi = LoadLe32(data + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *data) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t Crc32c(const std::uint8_t* data, std::size_t size) {
#ifdef COSR_CRC32C_X86
  if (kHaveSse42) return Crc32cSse42(data, size);
#endif
  return Crc32cPortable(data, size);
}

}  // namespace cosr
