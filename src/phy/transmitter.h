// Full 802.11a-style transmit chain: PSDU -> preamble + SIGNAL + DATA
// waveform. Also exposes the frequency-domain symbol stream so the JMB core
// can precode symbols across APs before waveform synthesis.
#pragma once

#include "phy/frame.h"
#include "phy/params.h"

namespace jmb::phy {

/// A fully built frame.
struct TxFrame {
  /// preamble + SIGNAL + data, kSymbolLen-aligned
  cvec samples;
  /// 64-pt symbols incl. pilots; [0] is SIGNAL
  std::vector<cvec> freq_symbols;
  Mcs mcs;
  std::size_t psdu_len = 0;

  /// Airtime in seconds at the given sample rate.
  [[nodiscard]] double duration_s(double sample_rate_hz) const {
    return static_cast<double>(samples.size()) / sample_rate_hz;
  }
};

class Transmitter {
 public:
  explicit Transmitter(PhyConfig cfg = {}) : cfg_(cfg) {}

  /// Build a complete frame for one PSDU.
  [[nodiscard]] TxFrame build_frame(
      const ByteVec& psdu, const Mcs& mcs,
      unsigned scrambler_seed = kDefaultScramblerSeed) const;

  /// Frequency-domain symbols only (pilots included; [0] = SIGNAL). The JMB
  /// joint transmitter stacks these across streams and precodes them.
  [[nodiscard]] std::vector<cvec> build_freq_symbols(
      const ByteVec& psdu, const Mcs& mcs,
      unsigned scrambler_seed = kDefaultScramblerSeed) const;

  /// Synthesize the time-domain payload (no preamble) from frequency-domain
  /// symbols: IFFT + CP per symbol.
  [[nodiscard]] static cvec synthesize(const std::vector<cvec>& freq_symbols);

  [[nodiscard]] const PhyConfig& config() const { return cfg_; }

 private:
  PhyConfig cfg_;
};

}  // namespace jmb::phy
