// Per-subcarrier least-squares channel estimation from LTF symbols, and the
// pilot-based phase tracker that follows residual CFO/SFO through a packet.
#pragma once

#include <array>
#include <optional>

#include "dsp/types.h"
#include "linalg/cmatrix.h"
#include "phy/params.h"

namespace jmb {
class Workspace;
}

namespace jmb::phy {

/// Frequency response on the 52 used subcarriers, indexed by FFT bin.
/// Unused bins are 0. Invariant: h.size() == kNfft.
struct ChannelEstimate {
  cvec h = cvec(kNfft);

  [[nodiscard]] cplx at(int logical) const { return h[bin_of(logical)]; }
  void set(int logical, cplx v) { h[bin_of(logical)] = v; }

  /// Mean gain power over the used subcarriers.
  [[nodiscard]] double mean_gain_power() const;

  /// Rotate every subcarrier by e^{j phi}.
  void rotate(double phi);

  /// Per-subcarrier complex ratio (this / other) averaged over used
  /// subcarriers — the direct phase-offset measurement of Section 5.2.
  [[nodiscard]] cplx mean_ratio(const ChannelEstimate& other) const;
};

/// LS estimate from one 64-sample LTF FFT: divide by the known sequence.
[[nodiscard]] ChannelEstimate estimate_from_ltf(const cvec& freq_symbol);

/// Average of per-symbol estimates (reduces noise ~ 1/sqrt(n)).
[[nodiscard]] ChannelEstimate average_estimates(
    const std::vector<ChannelEstimate>& estimates);

/// Denoise an estimate by least-squares projection onto a short
/// time-domain support: the true channel has only a few taps (plus the
/// FFT-window back-off and fractional delays), so restricting the
/// impulse response to `support` samples removes (52 - support)/52 of
/// the estimation noise without biasing real multipath. The projection
/// matrix comes from the per-trial workspace's cache and the
/// intermediates live in workspace buffers. Throws std::invalid_argument
/// unless 1 <= support <= 52.
[[nodiscard]] ChannelEstimate denoise_time_support(const ChannelEstimate& est,
                                                   Workspace& ws,
                                                   std::size_t support = 20);

/// Build the least-squares projection matrix P = B (B^H B)^{-1} B^H that
/// restricts a 52-subcarrier estimate to `support` time-domain taps.
/// Workspace::denoise_projection caches it per workspace.
[[nodiscard]] CMatrix make_denoise_projection(std::size_t support);

/// Pilot-based tracking of common phase error (residual CFO) and phase
/// slope across subcarriers (timing drift / SFO), per OFDM symbol.
struct PilotPhase {
  double common = 0.0;  ///< radians applied to all subcarriers
  double slope = 0.0;   ///< radians per subcarrier index
};

/// Estimate CPE + slope from the received pilots of one equalized symbol.
/// `freq_symbol` is the raw FFT output; `chan` the channel estimate;
/// `symbol_index` selects the pilot polarity.
[[nodiscard]] PilotPhase track_pilots(const cvec& freq_symbol,
                                      const ChannelEstimate& chan,
                                      std::size_t symbol_index);

/// Undo a PilotPhase on the 48 extracted data symbols (indexed in
/// data_carriers() order).
void apply_phase_correction(cvec& data48, const PilotPhase& pp);

}  // namespace jmb::phy
