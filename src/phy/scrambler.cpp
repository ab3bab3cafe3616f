#include "phy/scrambler.h"

#include <stdexcept>

namespace jmb::phy {

Scrambler::Scrambler(unsigned seed) : state_(seed & 0x7F) {
  if (state_ == 0) {
    throw std::invalid_argument(
        "Scrambler: seed must be a nonzero 7-bit value");
  }
}

std::uint8_t Scrambler::next_bit() {
  // Feedback is x7 xor x4 (bit 6 xor bit 3 of the register).
  const unsigned fb = ((state_ >> 6) ^ (state_ >> 3)) & 1u;
  state_ = ((state_ << 1) | fb) & 0x7F;
  return static_cast<std::uint8_t>(fb);
}

void Scrambler::scramble_in_place(std::span<std::uint8_t> bits) {
  for (std::uint8_t& b : bits) {
    b = static_cast<std::uint8_t>((b ^ next_bit()) & 1u);
  }
}

BitVec scramble_bits(const BitVec& bits, unsigned seed) {
  BitVec out = bits;
  Scrambler(seed).scramble_in_place(out);
  return out;
}

}  // namespace jmb::phy
