#include "phy/sync.h"

#include <algorithm>
#include <cmath>

#include "phy/ofdm.h"
#include "phy/preamble.h"

namespace jmb::phy {

std::optional<Detection> detect_packet(const cvec& rx, std::size_t search_from,
                                       double threshold) {
  // Schmidl&Cox-style metric over a 32-sample window at lag 16.
  constexpr std::size_t kLag = 16;
  constexpr std::size_t kWin = 32;
  if (rx.size() < search_from + kWin + kLag + 1) return std::nullopt;

  const std::size_t last = rx.size() - kWin - kLag;
  double best_metric = 0.0;
  std::size_t best_pos = 0;
  bool in_plateau = false;
  std::size_t plateau_start = 0;
  for (std::size_t d = search_from; d < last; ++d) {
    cplx corr{};
    double power = 0.0;
    for (std::size_t k = 0; k < kWin; ++k) {
      corr += std::conj(rx[d + k]) * rx[d + k + kLag];
      power += std::norm(rx[d + k + kLag]);
    }
    if (power < 1e-12) continue;
    const double m = std::abs(corr) / power;
    if (m > threshold && power > 1e-9) {
      if (!in_plateau) {
        in_plateau = true;
        plateau_start = d;
        best_metric = m;
        best_pos = d;
      } else if (m > best_metric) {
        best_metric = m;
        best_pos = d;
      }
      // A genuine STF plateau is ~128 samples; once we have seen 96 we can
      // report the plateau start as the packet start.
      if (d - plateau_start > 96) {
        return Detection{plateau_start, best_metric};
      }
    } else {
      in_plateau = false;
    }
  }
  if (in_plateau) return Detection{plateau_start, best_metric};
  (void)best_pos;
  return std::nullopt;
}

namespace {

double cfo_from_lag(const cvec& x, std::size_t lag, std::size_t n_terms,
                    double sample_rate_hz) {
  cplx acc{};
  for (std::size_t k = 0; k < n_terms; ++k) {
    acc += std::conj(x[k]) * x[k + lag];
  }
  // x[k+lag] = x[k] e^{j 2 pi f lag / fs}  =>  f = arg(acc) fs / (2 pi lag).
  return std::arg(acc) * sample_rate_hz / (kTwoPi * static_cast<double>(lag));
}

}  // namespace

double coarse_cfo_hz(const cvec& stf, double sample_rate_hz) {
  constexpr std::size_t kLag = 16;
  const std::size_t n = std::min<std::size_t>(stf.size() - kLag, 128);
  return cfo_from_lag(stf, kLag, n, sample_rate_hz);
}

double fine_cfo_hz(const cvec& ltf64x2, double sample_rate_hz) {
  constexpr std::size_t kLag = 64;
  if (ltf64x2.size() < 2 * kLag) return 0.0;
  return cfo_from_lag(ltf64x2, kLag, kLag, sample_rate_hz);
}

std::optional<std::size_t> locate_ltf(const cvec& rx, std::size_t from,
                                      std::size_t to) {
  const cvec& ref = ltf_symbol_time();
  if (rx.size() < ref.size() || from >= rx.size()) return std::nullopt;
  to = std::min(to, rx.size() - ref.size());
  if (from >= to) return std::nullopt;

  const double ref_energy = energy(ref);
  double best = 0.0;
  std::size_t best_pos = from;
  for (std::size_t d = from; d < to; ++d) {
    cplx corr{};
    double local = 0.0;
    for (std::size_t k = 0; k < ref.size(); ++k) {
      corr += std::conj(ref[k]) * rx[d + k];
      local += std::norm(rx[d + k]);
    }
    if (local < 1e-12) continue;
    const double m = std::norm(corr) / (local * ref_energy);
    if (m > best) {
      best = m;
      best_pos = d;
    }
  }
  if (best < 0.2) return std::nullopt;  // nothing LTF-like in the window
  return best_pos;
}

namespace {

// STF periodicity (lag-16 autocorrelation magnitude) over [start, start+n).
double stf_periodicity(const cvec& rx, std::size_t start, std::size_t n) {
  if (start + n + 16 > rx.size()) return 0.0;
  cplx corr{};
  double power = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    corr += std::conj(rx[start + k]) * rx[start + k + 16];
    power += std::norm(rx[start + k + 16]);
  }
  return power > 1e-12 ? std::abs(corr) / power : 0.0;
}

}  // namespace

std::optional<std::size_t> locate_ltf_earliest(const cvec& rx,
                                               std::size_t from,
                                               std::size_t to) {
  const cvec& ref = ltf_symbol_time();
  if (rx.size() < ref.size() || from >= rx.size()) return std::nullopt;
  to = std::min(to, rx.size() - ref.size());
  if (from >= to) return std::nullopt;

  rvec metric(to - from, 0.0);
  double best = 0.0;
  for (std::size_t d = from; d < to; ++d) {
    metric[d - from] = ltf_metric_at(rx, d);
    best = std::max(best, metric[d - from]);
  }
  if (best < 0.2) return std::nullopt;
  const double thr = 0.35 * best;
  for (std::size_t i = 0; i < metric.size(); ++i) {
    if (metric[i] < thr) continue;
    // Ride the rising edge to the local peak.
    std::size_t j = i;
    while (j + 1 < metric.size() && metric[j + 1] >= metric[j]) ++j;
    const std::size_t cand = from + j;
    // Validate the sync-header signature: a second identical LTF right
    // after, and STF periodicity just before — lone channel-measurement
    // symbols and CFO blocks in JMB frames fail one of the two.
    const bool double_ltf =
        ltf_metric_at(rx, cand + 64) >= 0.5 * metric[j];
    const bool stf_before =
        cand >= 180 && stf_periodicity(rx, cand - 176, 128) > 0.35;
    if (double_ltf && stf_before) return cand;
    i = j + 32;  // skip past this peak's neighbourhood
  }
  return std::nullopt;
}

double ltf_metric_at(const cvec& rx, std::size_t pos) {
  const cvec& ref = ltf_symbol_time();
  if (pos + ref.size() > rx.size()) return 0.0;
  cplx corr{};
  double local = 0.0;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    corr += std::conj(ref[k]) * rx[pos + k];
    local += std::norm(rx[pos + k]);
  }
  if (local < 1e-12) return 0.0;
  return std::norm(corr) / (local * energy(ref));
}

void correct_cfo_into(std::span<const cplx> x, double cfo_hz,
                      double sample_rate_hz, double n0, std::span<cplx> out) {
  if (out.size() != x.size()) {
    throw std::invalid_argument("correct_cfo: output size mismatch");
  }
  const double step = -kTwoPi * cfo_hz / sample_rate_hz;
  for (std::size_t n = 0; n < x.size(); ++n) {
    out[n] = x[n] * phasor(step * (static_cast<double>(n) + n0));
  }
}

void fft_window_into(std::span<const cplx> x, std::size_t pos, double cfo_hz,
                     double sample_rate_hz, double n0, cvec& out) {
  out.resize(kNfft);
  correct_cfo_into(x.subspan(pos, kNfft), cfo_hz, sample_rate_hz, n0, out);
  ofdm_fft_plan().forward(out);
}

}  // namespace jmb::phy
