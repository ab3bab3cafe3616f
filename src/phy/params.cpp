#include "phy/params.h"

#include <stdexcept>

#include "phy/scrambler.h"

namespace jmb::phy {

const std::array<int, kNumDataCarriers>& data_carriers() {
  static const std::array<int, kNumDataCarriers> kCarriers = [] {
    std::array<int, kNumDataCarriers> c{};
    std::size_t i = 0;
    for (int k = -26; k <= 26; ++k) {
      if (k == 0 || k == -21 || k == -7 || k == 7 || k == 21) continue;
      c[i++] = k;
    }
    return c;
  }();
  return kCarriers;
}

const std::array<int, kNumPilots>& pilot_carriers() {
  static const std::array<int, kNumPilots> kPilots{-21, -7, 7, 21};
  return kPilots;
}

const std::array<double, kNumPilots>& pilot_base() {
  // 802.11a 17.3.5.9: pilots are {1, 1, 1, -1} on {-21, -7, 7, 21}.
  static const std::array<double, kNumPilots> kBase{1.0, 1.0, 1.0, -1.0};
  return kBase;
}

double pilot_polarity(std::size_t symbol_index) {
  // p_n is the scrambler sequence for the all-ones seed, mapped 0 -> +1,
  // 1 -> -1, with period 127 (802.11a 17.3.5.9).
  static const std::array<double, 127> kP = [] {
    std::array<double, 127> p{};
    Scrambler s(0x7F);
    for (double& v : p) v = s.next_bit() ? -1.0 : 1.0;
    return p;
  }();
  return kP[symbol_index % 127];
}

std::size_t bits_per_symbol(Modulation m) {
  switch (m) {
    case Modulation::kBpsk: return 1;
    case Modulation::kQpsk: return 2;
    case Modulation::kQam16: return 4;
    case Modulation::kQam64: return 6;
  }
  throw std::logic_error("bits_per_symbol: bad modulation");
}

std::size_t Mcs::n_dbps() const {
  // N_CBPS * code rate; all combinations used by 802.11 divide exactly.
  const std::size_t cbps = n_cbps();
  switch (code_rate) {
    case CodeRate::kHalf: return cbps / 2;
    case CodeRate::kTwoThirds: return cbps * 2 / 3;
    case CodeRate::kThreeQuarters: return cbps * 3 / 4;
  }
  throw std::logic_error("n_dbps: bad rate");
}

const std::vector<Mcs>& rate_set() {
  static const std::vector<Mcs> kRates{
      {Modulation::kBpsk, CodeRate::kHalf},
      {Modulation::kBpsk, CodeRate::kThreeQuarters},
      {Modulation::kQpsk, CodeRate::kHalf},
      {Modulation::kQpsk, CodeRate::kThreeQuarters},
      {Modulation::kQam16, CodeRate::kHalf},
      {Modulation::kQam16, CodeRate::kThreeQuarters},
      {Modulation::kQam64, CodeRate::kTwoThirds},
      {Modulation::kQam64, CodeRate::kThreeQuarters},
  };
  return kRates;
}

std::size_t rate_index(const Mcs& mcs) {
  const auto& rates = rate_set();
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (rates[i] == mcs) return i;
  }
  throw std::invalid_argument("rate_index: MCS not in the 802.11 rate set");
}

unsigned rate_field_bits(std::size_t rate_set_index) {
  // 802.11a Table 17-6 (R1-R4), indexed by our rate_set() order.
  static const std::array<unsigned, 8> kField{0b1101, 0b1111, 0b0101, 0b0111,
                                              0b1001, 0b1011, 0b0001, 0b0011};
  if (rate_set_index >= kField.size()) {
    throw std::invalid_argument("rate_field_bits: index out of range");
  }
  return kField[rate_set_index];
}

std::size_t rate_index_from_field(unsigned bits) {
  static const std::array<unsigned, 8> kField{0b1101, 0b1111, 0b0101, 0b0111,
                                              0b1001, 0b1011, 0b0001, 0b0011};
  for (std::size_t i = 0; i < kField.size(); ++i) {
    if (kField[i] == bits) return i;
  }
  throw std::invalid_argument("rate_index_from_field: invalid RATE bits");
}

}  // namespace jmb::phy
