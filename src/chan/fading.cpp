#include "chan/fading.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace jmb::chan {

namespace {

/// Scatterers per tap for the sum-of-sinusoids (Jakes) evolution model.
constexpr std::size_t kScatterers = 8;

/// Doppler from coherence time, defined at the 50%-correlation point:
/// J0(2 pi f_D Tc) = 0.5  =>  2 pi f_D Tc ~ 1.52.
double doppler_from_coherence(double tc_s) { return 1.52 / (kTwoPi * tc_s); }

}  // namespace

FadingChannel::FadingChannel(FadingParams p) : params_(p), rng_(p.seed) {
  if (p.n_taps == 0) {
    throw std::invalid_argument("FadingChannel: need >= 1 tap");
  }
  // Negated comparisons, so a NaN fails them too.
  if (!(p.gain >= 0)) {
    throw std::invalid_argument("FadingChannel: negative or NaN gain");
  }
  if (!(p.coherence_time_s > 0)) {
    throw std::invalid_argument(
        "FadingChannel: coherence time must be positive");
  }
  draw_initial();
}

void FadingChannel::draw_initial() {
  const std::size_t L = params_.n_taps;
  // Exponential PDP: power_l = decay^l, normalized to sum = gain.
  rvec power(L);
  double total = 0.0;
  for (std::size_t l = 0; l < L; ++l) {
    power[l] = std::pow(params_.tap_decay, static_cast<double>(l));
    total += power[l];
  }
  for (double& v : power) v *= params_.gain / total;

  // Each tap = constant LOS mean (Rician) + a sum of kScatterers complex
  // sinusoids at Doppler-distributed frequencies. The sum is Rayleigh in
  // ensemble, and its autocorrelation approaches J0(2 pi f_D dt): flat
  // (quadratic) at short lags — which is what lets JMB amortize one
  // channel measurement over the coherence time — and decorrelated beyond.
  const double f_d = doppler_from_coherence(params_.coherence_time_s);
  mean_taps_.assign(L, cplx{});
  scatterers_.assign(L, {});
  taps_.assign(L, cplx{});
  for (std::size_t l = 0; l < L; ++l) {
    const double k = (l == 0) ? params_.rice_k : 0.0;
    const double los_p = power[l] * k / (k + 1.0);
    const double diffuse_p = power[l] / (k + 1.0);
    mean_taps_[l] = phasor(rng_.uniform_phase()) * std::sqrt(los_p);
    scatterers_[l].reserve(kScatterers);
    const double amp = std::sqrt(diffuse_p / static_cast<double>(kScatterers));
    for (std::size_t m = 0; m < kScatterers; ++m) {
      scatterers_[l].push_back(
          Scatterer{f_d * std::cos(rng_.uniform_phase()),
                    rng_.uniform_phase(), amp});
    }
  }
  evolve_to(0.0);
}

void FadingChannel::evolve_to(double t_seconds) {
  // Written so that NaN fails the test too.
  if (!(t_seconds >= t_)) {
    throw std::invalid_argument(
        "FadingChannel::evolve_to: time must not go backwards or be NaN");
  }
  t_ = t_seconds;
  for (std::size_t l = 0; l < taps_.size(); ++l) {
    cplx acc = mean_taps_[l];
    for (const Scatterer& s : scatterers_[l]) {
      acc += s.amplitude * phasor(kTwoPi * s.freq_hz * t_seconds + s.phase);
    }
    taps_[l] = acc;
  }
}

void FadingChannel::apply_range(std::span<const cplx> x, std::size_t k0,
                                std::size_t k1, std::span<cplx> out) const {
  std::fill_n(out.begin(), k1 - k0, cplx{});
  for (std::size_t l = 0; l < taps_.size(); ++l) {
    const cplx h = taps_[l];
    if (h == cplx{}) continue;
    // out[k - k0] += h * x[k - l] over the k in [k0, k1) with 0 <= k - l
    // < x.size().
    const std::size_t lo = std::max(k0, l);
    const std::size_t hi = std::min(k1, x.size() + l);
    for (std::size_t k = lo; k < hi; ++k) out[k - k0] += h * x[k - l];
  }
}

}  // namespace jmb::chan
