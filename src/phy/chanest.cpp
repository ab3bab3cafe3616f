#include "phy/chanest.h"

#include <cmath>
#include <stdexcept>

#include "linalg/pinv.h"
#include "phy/ofdm.h"
#include "phy/preamble.h"
#include "phy/workspace.h"

namespace jmb::phy {

namespace {

// Iterate the 52 used logical subcarriers.
template <typename F>
void for_used(F&& f) {
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    f(k);
  }
}

}  // namespace

double ChannelEstimate::mean_gain_power() const {
  double acc = 0.0;
  int n = 0;
  for_used([&](int k) {
    acc += std::norm(h[bin_of(k)]);
    ++n;
  });
  return n ? acc / n : 0.0;
}

void ChannelEstimate::rotate(double phi) {
  const cplx r = phasor(phi);
  for (cplx& v : h) v *= r;
}

cplx ChannelEstimate::mean_ratio(const ChannelEstimate& other) const {
  // Power-weighted mean of h_this / h_other over used subcarriers:
  // sum(h_this * conj(h_other)) / sum(|h_other|^2). Robust to per-
  // subcarrier noise, exact when the true ratio is a common rotation.
  cplx num{};
  double den = 0.0;
  for_used([&](int k) {
    num += h[bin_of(k)] * std::conj(other.h[bin_of(k)]);
    den += std::norm(other.h[bin_of(k)]);
  });
  if (den < 1e-18) return {0.0, 0.0};
  return num / den;
}

ChannelEstimate estimate_from_ltf(const cvec& freq_symbol) {
  if (freq_symbol.size() != kNfft) {
    throw std::invalid_argument("estimate_from_ltf: need kNfft values");
  }
  const cvec& l = ltf_freq();
  ChannelEstimate est;
  for_used([&](int k) {
    const std::size_t b = bin_of(k);
    est.h[b] = freq_symbol[b] / l[b];  // LTF entries are +-1
  });
  return est;
}

ChannelEstimate average_estimates(
    const std::vector<ChannelEstimate>& estimates) {
  if (estimates.empty()) {
    throw std::invalid_argument("average_estimates: empty input");
  }
  ChannelEstimate avg;
  for (const auto& e : estimates) {
    for (std::size_t b = 0; b < kNfft; ++b) avg.h[b] += e.h[b];
  }
  const double inv = 1.0 / static_cast<double>(estimates.size());
  for (cplx& v : avg.h) v *= inv;
  return avg;
}

CMatrix make_denoise_projection(std::size_t support) {
  if (support == 0 || support > 52) {
    throw std::invalid_argument("denoise_time_support: support must be 1..52");
  }
  // Basis: B(row k, col l) = e^{-j 2 pi k l / 64} over the 52 used
  // subcarriers; projection matrix P = B (B^H B)^{-1} B^H.
  CMatrix b(52, support);
  std::size_t row = 0;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    for (std::size_t l = 0; l < support; ++l) {
      b(row, l) = phasor(-kTwoPi * static_cast<double>(k) *
                         static_cast<double>(l) / 64.0);
    }
    ++row;
  }
  const auto b_pinv = pinv(b);
  if (!b_pinv) throw std::logic_error("denoise_time_support: basis singular");
  return b * (*b_pinv);
}

ChannelEstimate denoise_time_support(const ChannelEstimate& est, Workspace& ws,
                                     std::size_t support) {
  // Gather the 52 used gains, project, and scatter the result back.
  const CMatrix& projection = ws.denoise_projection(support);
  cvec& v = ws.denoise_v;
  cvec& smooth = ws.denoise_smooth;
  v.resize(52);
  std::size_t row = 0;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    v[row++] = est.h[bin_of(k)];
  }
  smooth.resize(52);
  multiply_into(projection, v, smooth);
  ChannelEstimate out;
  row = 0;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    out.h[bin_of(k)] = smooth[row++];
  }
  return out;
}

PilotPhase track_pilots(const cvec& freq_symbol, const ChannelEstimate& chan,
                        std::size_t symbol_index) {
  const auto& pc = pilot_carriers();
  const auto& pb = pilot_base();
  const double pol = pilot_polarity(symbol_index);

  // For each pilot, the residual rotation r_i = y_i / (h_i * p_i).
  // Fit phase(r_i) ~ common + slope * k_i by weighted least squares with
  // weights |h_i|^2 (noisier pilots count less). Phases are extracted via
  // products to stay wrap-safe for the small residuals we track.
  std::array<cplx, kNumPilots> r{};
  std::array<double, kNumPilots> w{};
  for (std::size_t i = 0; i < kNumPilots; ++i) {
    const std::size_t b = bin_of(pc[i]);
    const cplx href = chan.h[b] * (pol * pb[i]);
    w[i] = std::norm(chan.h[b]);
    r[i] = freq_symbol[b] * std::conj(href);  // |href|^2 * e^{j residual}
  }
  // Wrap-safe anchor: de-rotate by the circular mean, then jointly fit
  // psi_i ~ a + b*k_i by weighted least squares, and fold the anchor back.
  cplx acc{};
  for (std::size_t i = 0; i < kNumPilots; ++i) acc += r[i];
  const double theta0 = std::arg(acc);

  double sw = 0.0, sk = 0.0, skk = 0.0, sp = 0.0, skp = 0.0;
  for (std::size_t i = 0; i < kNumPilots; ++i) {
    const double psi = std::arg(r[i] * phasor(-theta0));
    const double k = static_cast<double>(pc[i]);
    sw += w[i];
    sk += w[i] * k;
    skk += w[i] * k * k;
    sp += w[i] * psi;
    skp += w[i] * k * psi;
  }
  const double den = sw * skk - sk * sk;
  if (den < 1e-18) return {theta0, 0.0};
  const double slope = (sw * skp - sk * sp) / den;
  const double a = (sp * skk - sk * skp) / den;
  return {wrap_phase(theta0 + a), slope};
}

void apply_phase_correction(cvec& data48, const PilotPhase& pp) {
  if (data48.size() != kNumDataCarriers) {
    throw std::invalid_argument("apply_phase_correction: need 48 symbols");
  }
  const auto& dc = data_carriers();
  for (std::size_t i = 0; i < kNumDataCarriers; ++i) {
    const double phi = pp.common + pp.slope * static_cast<double>(dc[i]);
    data48[i] *= phasor(-phi);
  }
}

}  // namespace jmb::phy
