// OFDM numerology and rate set for the 802.11a/g-style PHY the paper's
// USRP testbed runs: 64-point FFT, 48 data + 4 pilot subcarriers, 16-sample
// cyclic prefix, on a 10 MHz channel (the paper's USRP bandwidth) or 20 MHz
// (the 802.11n compatibility testbed).
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "dsp/types.h"

namespace jmb::phy {

/// Core OFDM numerology (fixed by the 802.11 OFDM PHY).
constexpr std::size_t kNfft = 64;
constexpr std::size_t kCpLen = 16;
constexpr std::size_t kSymbolLen = kNfft + kCpLen;  // 80 samples
constexpr std::size_t kNumDataCarriers = 48;
constexpr std::size_t kNumPilots = 4;

/// Short training field: 10 repetitions of a 16-sample sequence.
constexpr std::size_t kStfLen = 160;
/// Long training field: 32-sample guard + two 64-sample symbols.
constexpr std::size_t kLtfLen = 160;
constexpr std::size_t kPreambleLen = kStfLen + kLtfLen;  // 320 samples

/// Logical subcarrier indices (-26..26, excluding 0 and pilots) of the 48
/// data subcarriers, in transmission order.
[[nodiscard]] const std::array<int, kNumDataCarriers>& data_carriers();

/// Pilot subcarrier indices {-21, -7, 7, 21}.
[[nodiscard]] const std::array<int, kNumPilots>& pilot_carriers();

/// Base pilot values on {-21,-7,7,21} before per-symbol polarity.
[[nodiscard]] const std::array<double, kNumPilots>& pilot_base();

/// Per-OFDM-symbol pilot polarity p_{n mod 127} (802.11a 17.3.5.9), derived
/// from the scrambler sequence with an all-ones seed.
[[nodiscard]] double pilot_polarity(std::size_t symbol_index);

/// Map a logical subcarrier index (-32..31) to an FFT bin (0..63).
[[nodiscard]] constexpr std::size_t bin_of(int logical) {
  return static_cast<std::size_t>((logical + static_cast<int>(kNfft)) %
                                  static_cast<int>(kNfft));
}

/// Constellations supported by the rate set.
enum class Modulation { kBpsk, kQpsk, kQam16, kQam64 };

[[nodiscard]] std::size_t bits_per_symbol(Modulation m);

/// Convolutional code rates after puncturing.
enum class CodeRate { kHalf, kTwoThirds, kThreeQuarters };

/// One entry of the 802.11 OFDM rate set.
struct Mcs {
  Modulation modulation = Modulation::kBpsk;
  CodeRate code_rate = CodeRate::kHalf;

  /// Coded bits per subcarrier (N_BPSC).
  [[nodiscard]] std::size_t n_bpsc() const {
    return bits_per_symbol(modulation);
  }
  /// Coded bits per OFDM symbol (N_CBPS).
  [[nodiscard]] std::size_t n_cbps() const {
    return n_bpsc() * kNumDataCarriers;
  }
  /// Data bits per OFDM symbol (N_DBPS).
  [[nodiscard]] std::size_t n_dbps() const;

  friend bool operator==(const Mcs&, const Mcs&) = default;
};

/// The eight 802.11a/g rates, slowest first.
[[nodiscard]] const std::vector<Mcs>& rate_set();

/// Index of an MCS in rate_set(); throws if not a member.
[[nodiscard]] std::size_t rate_index(const Mcs& mcs);

/// The 4-bit RATE field encoding used in the SIGNAL symbol (802.11a
/// Table 17-6), and its decoder. Returns rate_set() index.
[[nodiscard]] unsigned rate_field_bits(std::size_t rate_set_index);
[[nodiscard]] std::size_t rate_index_from_field(unsigned bits);

/// Sample rate of the paper's USRP2 testbed: a 10 MHz channel. The one
/// definition every layer (PHY, channel, airtime, phase sync) reads.
inline constexpr double kSampleRateHz = 10e6;
/// RF carrier of the testbed (2.4 GHz ISM), for ppm -> Hz conversions.
inline constexpr double kCarrierHz = 2.4e9;

/// Channel/system-level configuration shared by TX and RX.
struct PhyConfig {
  double sample_rate_hz = kSampleRateHz;
  double carrier_hz = kCarrierHz;

  [[nodiscard]] double symbol_duration_s() const {
    return static_cast<double>(kSymbolLen) / sample_rate_hz;
  }
};

}  // namespace jmb::phy
