#include "phy/bits.h"

#include <stdexcept>

namespace jmb::phy {

BitVec bytes_to_bits(const ByteVec& bytes) {
  BitVec bits;
  bits.reserve(bytes.size() * 8);
  for (std::uint8_t by : bytes) {
    for (int b = 0; b < 8; ++b) {
      bits.push_back(static_cast<std::uint8_t>((by >> b) & 1u));
    }
  }
  return bits;
}

ByteVec bits_to_bytes(std::span<const std::uint8_t> bits) {
  if (bits.size() % 8 != 0) {
    throw std::invalid_argument("bits_to_bytes: size not a multiple of 8");
  }
  ByteVec bytes(bits.size() / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] & 1u) bytes[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return bytes;
}

}  // namespace jmb::phy
