// Rate-1/2 convolutional encoder (K=7, generators 133/171 octal) with the
// 802.11 puncturing patterns for rates 2/3 and 3/4.
#pragma once

#include <span>

#include "phy/params.h"
#include "phy/scrambler.h"  // BitVec

namespace jmb::phy {

/// Constraint length and state count of the 802.11 code.
constexpr unsigned kConstraintLen = 7;
constexpr unsigned kNumStates = 1u << (kConstraintLen - 1);  // 64

/// Generator polynomials (octal 133 and 171).
constexpr unsigned kGenA = 0b1011011;
constexpr unsigned kGenB = 0b1111001;

/// Encode at mother rate 1/2: two output bits (A then B) per input bit.
/// The encoder starts from the all-zero state; callers append 6 zero tail
/// bits to terminate the trellis (the framer does this).
[[nodiscard]] BitVec conv_encode(const BitVec& bits);

/// Puncture a rate-1/2 coded stream to the target rate.
/// 2/3 drops every second B bit; 3/4 drops B2 and A3 of each 6-bit group.
[[nodiscard]] BitVec puncture(const BitVec& coded, CodeRate rate);

/// Number of coded bits after puncturing `n_in` information bits.
[[nodiscard]] std::size_t punctured_length(std::size_t n_in, CodeRate rate);

/// Re-insert erasures (LLR 0) where puncturing removed bits, into a soft
/// stream aligned with the mother code. `llr.size()` must equal
/// punctured_length(n_info, rate). `out` is resized/zeroed in place, so
/// the call is allocation-free once the buffer is warm.
void depuncture_into(std::span<const double> llr, std::size_t n_info,
                     CodeRate rate, std::vector<double>& out);

}  // namespace jmb::phy
