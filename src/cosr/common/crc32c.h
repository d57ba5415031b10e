#ifndef COSR_COMMON_CRC32C_H_
#define COSR_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace cosr {

/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected, init and xorout
/// 0xFFFFFFFF), the checksum of iSCSI (RFC 3720) and ext4. On x86-64 CPUs
/// with SSE4.2 it runs the `crc32` instruction eight bytes per step; every
/// other CPU takes Crc32cPortable. The path is chosen once, at start-up,
/// from the CPU's feature bits. Both paths return the same value for every
/// input.
std::uint32_t Crc32c(const std::uint8_t* data, std::size_t size);

/// The table-driven CRC32C (slicing-by-8) that Crc32c falls back on.
/// Exposed so that tests compare it with Crc32c on every host.
std::uint32_t Crc32cPortable(const std::uint8_t* data, std::size_t size);

}  // namespace cosr

#endif  // COSR_COMMON_CRC32C_H_
