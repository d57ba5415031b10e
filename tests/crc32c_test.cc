// Tests of the log checksum: CRC32C known answers, and the dispatched
// path (the SSE4.2 instruction where the CPU has it) against the portable
// table-driven path over lengths 0-300 at every start offset modulo 8, so
// every host runs the fallback.

#include "cosr/common/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace cosr {
namespace {

std::uint32_t Crc(const std::vector<std::uint8_t>& bytes) {
  return Crc32c(bytes.data(), bytes.size());
}

TEST(Crc32cTest, MatchesKnownAnswers) {
  // RFC 3720 B.4 (the CRC bytes printed there are little-endian).
  EXPECT_EQ(Crc(std::vector<std::uint8_t>(32, 0x00)), 0x8A9136AAu);
  EXPECT_EQ(Crc(std::vector<std::uint8_t>(32, 0xFF)), 0x62A8AB43u);
  std::vector<std::uint8_t> ascending(32);
  std::vector<std::uint8_t> descending(32);
  for (std::uint8_t i = 0; i < 32; ++i) {
    ascending[i] = i;
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  EXPECT_EQ(Crc(ascending), 0x46DD794Eu);
  EXPECT_EQ(Crc(descending), 0x113FDB5Cu);
  // The standard check value.
  const std::string check = "123456789";
  EXPECT_EQ(Crc32c(reinterpret_cast<const std::uint8_t*>(check.data()),
                   check.size()),
            0xE3069283u);
  EXPECT_EQ(Crc32cPortable(
                reinterpret_cast<const std::uint8_t*>(check.data()),
                check.size()),
            0xE3069283u);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(Crc32cTest, DispatchedPathMatchesPortablePath) {
  std::vector<std::uint8_t> buffer(300 + 8);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (std::uint8_t& byte : buffer) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    byte = static_cast<std::uint8_t>(state >> 56);
  }
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t length = 0; length <= 300; ++length) {
      const std::uint8_t* data = buffer.data() + start;
      ASSERT_EQ(Crc32c(data, length), Crc32cPortable(data, length))
          << "start " << start << " length " << length;
    }
  }
}

}  // namespace
}  // namespace cosr
