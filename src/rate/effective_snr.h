// Effective SNR (Halperin et al.): collapse a frequency-selective set of
// per-subcarrier SNRs into the single flat-channel SNR that would produce
// the same average uncoded BER, per constellation. Rate selection then
// compares the effective SNR against per-rate thresholds.
#pragma once

#include <array>
#include <optional>
#include <utility>

#include "dsp/types.h"
#include "phy/params.h"

namespace jmb::rate {

/// Effective SNR (linear) for a constellation given per-subcarrier SNRs.
/// Throws std::invalid_argument on no subcarriers or a NaN SNR (naming the
/// subcarrier).
[[nodiscard]] double effective_snr(phy::Modulation m,
                                   const rvec& subcarrier_snr);

/// Effective SNR in dB from per-subcarrier SNRs in linear units.
[[nodiscard]] double effective_snr_db(phy::Modulation m,
                                      const rvec& subcarrier_snr);

/// One link state's effective SNRs, each modulation's computed at most
/// once, so the rate pick and every PER draw on that state share one
/// evaluation. Owns the per-subcarrier SNRs, so it cannot dangle.
class EffectiveSnrs {
 public:
  EffectiveSnrs() = default;
  explicit EffectiveSnrs(rvec subcarrier_snr) {
    assign(std::move(subcarrier_snr));
  }

  /// Take a new link state and forget every cached value.
  void assign(rvec subcarrier_snr) {
    snr_ = std::move(subcarrier_snr);
    db_.fill(std::nullopt);
  }

  /// effective_snr_db(m, ...) of the held SNRs, computed on first use.
  [[nodiscard]] double db(phy::Modulation m);

 private:
  rvec snr_;
  std::array<std::optional<double>,
             static_cast<std::size_t>(phy::Modulation::kQam64) + 1>
      db_;
};

/// Minimum effective SNR (dB) required to run each entry of
/// phy::rate_set() at high delivery probability. Derived from the uncoded
/// BER the 802.11 convolutional code needs at each coding rate; matches
/// our PHY's measured waterfall within ~1 dB.
[[nodiscard]] const rvec& rate_thresholds_db();

/// Highest rate_set() index whose threshold is met, or nullopt if even the
/// base rate won't decode.
[[nodiscard]] std::optional<std::size_t> select_rate(EffectiveSnrs& link);

/// Same, from per-subcarrier SNRs (evaluated once, not cached beyond the
/// call).
[[nodiscard]] std::optional<std::size_t> select_rate(
    const rvec& subcarrier_snr);

/// Same, from a single flat SNR in dB.
[[nodiscard]] std::optional<std::size_t> select_rate_flat(double snr_db);

}  // namespace jmb::rate
