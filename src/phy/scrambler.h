// 802.11 frame-synchronous scrambler, x^7 + x^4 + 1 (17.3.5.5).
// Also generates the pilot polarity sequence (all-ones seed).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace jmb::phy {

using BitVec = std::vector<std::uint8_t>;  ///< one bit per element, 0 or 1

class Scrambler {
 public:
  /// seed: 7-bit initial shift-register state, must be nonzero.
  explicit Scrambler(unsigned seed);

  /// Next bit of the scrambling sequence (also advances the state).
  [[nodiscard]] std::uint8_t next_bit();

  /// XOR the sequence into `bits`.
  void scramble_in_place(std::span<std::uint8_t> bits);

 private:
  unsigned state_;
};

/// Convenience: scramble/descramble (the operation is its own inverse).
[[nodiscard]] BitVec scramble_bits(const BitVec& bits, unsigned seed);

}  // namespace jmb::phy
