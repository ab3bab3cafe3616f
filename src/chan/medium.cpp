#include "chan/medium.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.h"
#include "dsp/resampler.h"

namespace jmb::chan {

namespace {

/// One transmitter's phase-noise walk within a receive() call: a
/// fixed-size block that only moves forward, so the transmitter side
/// holds no window-sized buffer.
class TxWalk {
 public:
  /// theta(idx) of `osc`; idx should not decrease between calls (a
  /// smaller one restarts the walk).
  double at(const Oscillator& osc, std::uint64_t idx) {
    if (!live_ || idx < first_) {
      live_ = true;
      first_ = idx;
      osc.phase_noise_run(first_, phase_);
    }
    // Consecutive blocks continue one walk: no index is stepped twice.
    while (idx - first_ >= phase_.size()) {
      first_ += phase_.size();
      osc.phase_noise_run(first_, phase_);
    }
    return phase_[idx - first_];
  }

 private:
  bool live_ = false;
  std::uint64_t first_ = 0;  ///< phase-noise index of phase_[0]
  std::array<double, 256> phase_{};
};

}  // namespace

Medium::Medium(MediumParams p, std::uint64_t noise_seed)
    : params_(p), noise_rng_(noise_seed) {}

NodeId Medium::add_node(OscillatorParams osc, double noise_var) {
  osc.sample_rate_hz = params_.sample_rate_hz;
  nodes_.push_back(Node{Oscillator(osc), noise_var, {}});
  return nodes_.size() - 1;
}

const Oscillator& Medium::oscillator(NodeId id) const {
  return nodes_.at(id).osc;
}

Oscillator& Medium::oscillator_mutable(NodeId id) { return nodes_.at(id).osc; }

double Medium::noise_var(NodeId id) const { return nodes_.at(id).noise_var; }

void Medium::set_noise_var(NodeId id, double noise_var) {
  nodes_.at(id).noise_var = noise_var;
}

void Medium::set_interference(NodeId rx, std::vector<double> psd) {
  nodes_.at(rx).interference_psd = std::move(psd);
}

const std::vector<double>& Medium::interference(NodeId rx) const {
  return nodes_.at(rx).interference_psd;
}

void Medium::set_link(NodeId tx, NodeId rx, FadingParams fading) {
  if (tx >= nodes_.size() || rx >= nodes_.size()) {
    throw std::invalid_argument("Medium::set_link: unknown node");
  }
  fading.sample_rate_hz = params_.sample_rate_hz;
  links_[{tx, rx}] = std::make_unique<FadingChannel>(fading);
}

FadingChannel* Medium::link(NodeId tx, NodeId rx) {
  const auto it = links_.find({tx, rx});
  return it == links_.end() ? nullptr : it->second.get();
}

const FadingChannel* Medium::link(NodeId tx, NodeId rx) const {
  const auto it = links_.find({tx, rx});
  return it == links_.end() ? nullptr : it->second.get();
}

void Medium::evolve_links_to(double t_seconds) {
  if (!std::isfinite(t_seconds)) {
    throw std::invalid_argument("Medium::evolve_links_to: time is not finite");
  }
  for (auto& [key, chan] : links_) chan->evolve_to(t_seconds);
}

void Medium::transmit(NodeId tx, double start_s, cvec samples) {
  if (tx >= nodes_.size()) {
    throw std::invalid_argument("Medium::transmit: unknown node");
  }
  if (!std::isfinite(start_s)) {
    throw std::invalid_argument("Medium::transmit: start time is not finite");
  }
  transmissions_.push_back({tx, start_s, std::move(samples)});
}

void Medium::clear_transmissions() { transmissions_.clear(); }

cvec Medium::receive(NodeId rx, double start_s, std::size_t n) {
  if (rx >= nodes_.size()) {
    throw std::invalid_argument("Medium::receive: unknown node");
  }
  if (!std::isfinite(start_s)) {
    throw std::invalid_argument("Medium::receive: start time is not finite");
  }
  const Node& rxn = nodes_[rx];
  const double fs = params_.sample_rate_hz;
  const double fs_rx = rxn.osc.sample_rate_hz();

  // Start with the receiver's own thermal noise.
  cvec y(n);
  for (cplx& v : y) v = noise_rng_.cgaussian(rxn.noise_var);

  // Inter-cell interference as shaped noise: draw each FFT bin at the
  // installed per-subcarrier power and transform one block at a time.
  // Bin k of variance nfft * psd[k] lands in the time domain (ifft
  // scales by 1/N) with per-sample variance mean(psd) — a flat psd of v
  // raises the white floor by exactly v. Receivers without a profile
  // skip this entirely: drawing zero-power bins from the shared noise_rng_
  // would shift every later draw.
  if (!rxn.interference_psd.empty()) {
    const std::vector<double>& psd = rxn.interference_psd;
    const std::size_t nfft = psd.size();
    const auto nfft_d = static_cast<double>(nfft);
    cvec bins(nfft);
    for (std::size_t start = 0; start < n; start += nfft) {
      for (std::size_t k = 0; k < nfft; ++k) {
        bins[k] = noise_rng_.cgaussian(nfft_d * psd[k]);
      }
      const cvec block = ifft(bins);
      const std::size_t len = std::min(nfft, n - start);
      for (std::size_t i = 0; i < len; ++i) y[start + i] += block[i];
    }
  }

  if (n == 0) return y;

  // Receiver sample m is taken at true time tm = start_s + m / fs_rx, and
  // both oscillators' phase noise is read at nominal index floor(tm * fs),
  // which never decreases with m. So the receiver's phase noise over the
  // window is one run, walked once per call (and only if a burst overlaps
  // the window), and each transmitter's is one forward walk. Both live
  // only for the call: a buffer kept across calls raised peak RSS.
  const auto time_at = [&](std::size_t m) {
    return start_s + static_cast<double>(m) / fs_rx;
  };
  const auto index_at = [&](double tm) {
    return static_cast<std::uint64_t>(std::max(0.0, tm * fs));
  };
  std::vector<double> rx_phase;
  std::uint64_t rx_first = 0;
  std::vector<TxWalk> tx_walks(nodes_.size());

  for (const Transmission& t : transmissions_) {
    if (t.tx == rx) continue;  // half-duplex: a node doesn't hear itself
    const FadingChannel* ch = link(t.tx, rx);
    if (ch == nullptr) continue;

    const Node& txn = nodes_[t.tx];
    const double fs_tx = txn.osc.sample_rate_hz();
    const double delta_cfo = txn.osc.cfo_hz() - rxn.osc.cfo_hz();

    // Multipath at nominal tap spacing, then the pair-specific time base:
    // receiver sample m is taken at true time  t_m = start_s + m / fs_rx,
    // and sees the transmit waveform at position (t_m - t0 - delay) * fs_tx.
    const cvec conv = ch->apply(t.samples);
    const double delay_s = ch->delay_samples() / fs;
    const double t0 = t.start_s + delay_s;

    // Quick reject: does this burst overlap the window at all?
    const double burst_end = t0 + static_cast<double>(conv.size()) / fs_tx;
    const double win_start = start_s;
    const double win_end = start_s + static_cast<double>(n) / fs_rx;
    if (burst_end < win_start || t0 > win_end) continue;

    if (rx_phase.empty()) {
      rx_first = index_at(time_at(0));
      rx_phase.resize(index_at(time_at(n - 1)) - rx_first + 1);
      rxn.osc.phase_noise_run(rx_first, rx_phase);
    }
    TxWalk& tx_walk = tx_walks[t.tx];
    const auto len = static_cast<std::ptrdiff_t>(conv.size());
    const double last = static_cast<double>(conv.size() - 1);
    for (std::size_t m = 0; m < n; ++m) {
      const double tm = time_at(m);
      const double pos = (tm - t0) * fs_tx;
      if (!(pos >= 0.0 && pos <= last)) continue;
      // interp_cubic, minus its edge checks wherever all four neighbours
      // are inside the burst.
      const auto i1 = static_cast<std::ptrdiff_t>(std::floor(pos));
      cplx s;
      if (i1 >= 1 && i1 + 2 < len) {
        const double mu = pos - static_cast<double>(i1);
        s = cubic_segment(conv[i1 - 1], conv[i1], conv[i1 + 1], conv[i1 + 2],
                          mu);
      } else {
        s = interp_cubic(conv, pos);
      }
      if (s == cplx{}) continue;
      // Oscillator rotations evaluated at true time.
      const double det = kTwoPi * delta_cfo * tm;
      const std::uint64_t idx = index_at(tm);
      const double pn = tx_walk.at(txn.osc, idx) - rx_phase[idx - rx_first];
      y[m] += s * phasor(det + pn);
    }
  }
  return y;
}

cvec Medium::true_channel(NodeId tx, NodeId rx, std::size_t nfft) const {
  const FadingChannel* ch = link(tx, rx);
  if (ch == nullptr) {
    throw std::invalid_argument("Medium::true_channel: no such link");
  }
  cvec h = ch->frequency_response(nfft);
  // Fractional-delay phase ramp: delay d samples multiplies bin k by
  // e^{-j 2 pi k d / nfft} (k interpreted as signed logical index).
  const double d = ch->delay_samples();
  for (std::size_t b = 0; b < nfft; ++b) {
    const int k = (b <= nfft / 2)
                      ? static_cast<int>(b)
                      : static_cast<int>(b) - static_cast<int>(nfft);
    h[b] *= phasor(-kTwoPi * static_cast<double>(k) * d /
                   static_cast<double>(nfft));
  }
  return h;
}

}  // namespace jmb::chan
