// Byte/bit conversions (802.11 serializes bytes LSB-first).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "phy/scrambler.h"  // BitVec

namespace jmb::phy {

using ByteVec = std::vector<std::uint8_t>;

/// Bytes -> bits, LSB of each byte first.
[[nodiscard]] BitVec bytes_to_bits(const ByteVec& bytes);

/// Bits -> bytes; size must be a multiple of 8.
[[nodiscard]] ByteVec bits_to_bytes(std::span<const std::uint8_t> bits);

}  // namespace jmb::phy
