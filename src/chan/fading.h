// Rayleigh tapped-delay-line channel with exponential power-delay profile
// and first-order Gauss-Markov time evolution (coherence time ~ hundreds of
// milliseconds indoors, the figure the paper amortizes channel measurement
// over).
#pragma once

#include <cstdint>
#include <span>

#include "dsp/rng.h"
#include "dsp/types.h"
#include "phy/params.h"

namespace jmb::chan {

struct FadingParams {
  double gain = 1.0;              ///< average power gain (from path loss)
  std::size_t n_taps = 4;         ///< delay-line length at nominal spacing
  double tap_decay = 0.5;         ///< power ratio between consecutive taps
  double rice_k = 0.0;            ///< Rician K-factor for tap 0 (0 = Rayleigh)
  double delay_s = 0.0;           ///< propagation delay (fractional samples ok)
  double coherence_time_s = 0.25; ///< e^{-1} decorrelation time
  double sample_rate_hz = phy::kSampleRateHz;
  std::uint64_t seed = 1;
};

/// One directed link's impulse response, evolving in time via a
/// sum-of-sinusoids (Jakes) model: tap autocorrelation ~ J0(2 pi f_D dt),
/// flat at short lags and decorrelated past the coherence time.
///
/// Invariant: queries must be made with non-decreasing time (evolve_to is
/// monotone); taps are constant between evolve_to calls, matching the
/// block-fading assumption (packet << coherence time).
class FadingChannel {
 public:
  explicit FadingChannel(FadingParams p);

  /// Advance the tap process to absolute time t (seconds, monotone).
  void evolve_to(double t_seconds);

  /// Current taps (nominal sample spacing).
  [[nodiscard]] const cvec& taps() const { return taps_; }

  /// Propagation delay in nominal samples (fractional).
  [[nodiscard]] double delay_samples() const {
    return params_.delay_s * params_.sample_rate_hz;
  }

  /// Samples [k0, k1) of the burst x convolved with the current taps (a
  /// convolution of x.size() + n_taps - 1 samples) into out[0 .. k1 - k0),
  /// each accumulating the taps in order. Requires k0 <= k1 <= x.size() +
  /// n_taps - 1 and out.size() >= k1 - k0. Delay is NOT applied here —
  /// the Medium applies it when resampling onto the receiver's clock.
  void apply_range(std::span<const cplx> x, std::size_t k0, std::size_t k1,
                   std::span<cplx> out) const;

  [[nodiscard]] const FadingParams& params() const { return params_; }

 private:
  struct Scatterer {
    double freq_hz = 0.0;   ///< Doppler shift of this path
    double phase = 0.0;     ///< initial phase
    double amplitude = 0.0;
  };

  FadingParams params_;
  Rng rng_;
  cvec taps_;
  cvec mean_taps_;  ///< deterministic (LOS) component per tap
  std::vector<std::vector<Scatterer>> scatterers_;  ///< diffuse paths per tap
  double t_ = 0.0;

  void draw_initial();
};

}  // namespace jmb::chan
