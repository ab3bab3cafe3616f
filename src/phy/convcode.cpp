#include "phy/convcode.h"

#include <bit>
#include <stdexcept>

namespace jmb::phy {

namespace {

[[nodiscard]] std::uint8_t parity7(unsigned x) {
  return static_cast<std::uint8_t>(std::popcount(x & 0x7Fu) & 1);
}

// Puncturing keep-masks over one period of the mother-coded stream.
// Rate 1/2: keep everything. Rate 2/3: period 4 (A1 B1 A2 B2), drop B2.
// Rate 3/4: period 6 (A1 B1 A2 B2 A3 B3), drop B2 and A3 (802.11a 17.3.5.6).
struct PuncturePattern {
  std::size_t period;
  std::uint8_t keep[6];
};

[[nodiscard]] PuncturePattern pattern_for(CodeRate rate) {
  switch (rate) {
    case CodeRate::kHalf: return {2, {1, 1, 0, 0, 0, 0}};
    case CodeRate::kTwoThirds: return {4, {1, 1, 1, 0, 0, 0}};
    case CodeRate::kThreeQuarters: return {6, {1, 1, 1, 0, 0, 1}};
  }
  throw std::logic_error("pattern_for: bad rate");
}

}  // namespace

BitVec conv_encode(const BitVec& bits) {
  BitVec out;
  out.reserve(bits.size() * 2);
  unsigned state = 0;  // six most recent input bits
  for (std::uint8_t b : bits) {
    const unsigned window = ((b & 1u) << 6) | state;
    out.push_back(parity7(window & kGenA));
    out.push_back(parity7(window & kGenB));
    state = window >> 1;
  }
  return out;
}

BitVec puncture(const BitVec& coded, CodeRate rate) {
  if (coded.size() % 2 != 0) {
    throw std::invalid_argument("puncture: coded stream must be even length");
  }
  const PuncturePattern p = pattern_for(rate);
  BitVec out;
  out.reserve(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    if (p.keep[i % p.period]) out.push_back(coded[i]);
  }
  return out;
}

std::size_t punctured_length(std::size_t n_in, CodeRate rate) {
  switch (rate) {
    case CodeRate::kHalf: return n_in * 2;
    case CodeRate::kTwoThirds:
      if (n_in % 2 != 0) {
        throw std::invalid_argument("punctured_length: 2/3 needs even n_in");
      }
      return n_in * 3 / 2;
    case CodeRate::kThreeQuarters:
      if (n_in % 3 != 0) {
        throw std::invalid_argument(
            "punctured_length: 3/4 needs n_in % 3 == 0");
      }
      return n_in * 4 / 3;
  }
  throw std::logic_error("punctured_length: bad rate");
}

void depuncture_into(std::span<const double> llr, std::size_t n_info,
                     CodeRate rate, std::vector<double>& out) {
  if (llr.size() != punctured_length(n_info, rate)) {
    throw std::invalid_argument("depuncture: LLR length mismatch");
  }
  const PuncturePattern p = pattern_for(rate);
  out.assign(n_info * 2, 0.0);  // erasure = LLR 0
  std::size_t src = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (p.keep[i % p.period]) out[i] = llr[src++];
  }
}

}  // namespace jmb::phy
