#include "phy/receiver.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "phy/modulation.h"
#include "phy/ofdm.h"
#include "phy/sync.h"
#include "phy/workspace.h"

namespace jmb::phy {

namespace {

// The receiver CFO-corrects only the samples it reads. Samples
// [pos, pos + out.size()) of correct_cfo(rx, cfo_hz, fs) go to `out`:
// the same doubles as correcting the whole buffer, because
// double(n - pos) + double(pos) == double(n) for every n < 2^53, so each
// sample's phase argument is the same product.
void correct_window_into(const cvec& rx, std::size_t pos, double cfo_hz,
                         double fs, std::span<cplx> out) {
  correct_cfo_into(std::span(rx).subspan(pos, out.size()), cfo_hz, fs,
                   static_cast<double>(pos), out);
}

// locate_ltf(corrected, from, to) over the corrected copy of rx, where
// `corrected` holds the correction of exactly the samples that call reads:
// [from, to' + 63) with to' = min(to, rx.size() - 64), or none when it
// reads none. Samples outside that range are left as they were.
std::optional<std::size_t> locate_ltf_corrected(const cvec& rx, double cfo_hz,
                                                double fs, std::size_t from,
                                                std::size_t to,
                                                cvec& corrected) {
  corrected.resize(rx.size());
  if (rx.size() >= kNfft && from < rx.size()) {
    const std::size_t last = std::min(to, rx.size() - kNfft);
    if (from < last) {
      correct_window_into(
          rx, from, cfo_hz, fs,
          std::span(corrected).subspan(from, last - from + kNfft - 1));
    }
  }
  return locate_ltf(corrected, from, to);
}

// Noise variance estimate from the two (ideally identical) LTF symbols.
double ltf_noise_var(const cvec& f1, const cvec& f2) {
  double acc = 0.0;
  int n = 0;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    const std::size_t b = bin_of(k);
    acc += std::norm(f1[b] - f2[b]);
    ++n;
  }
  // Var(f1 - f2) = 2 * noise_var per subcarrier.
  return std::max(acc / (2.0 * n), 1e-12);
}

// The two-LTF measurement: FFT windows at w1 and w1 + kNfft (left in
// ws.win_a/win_b), each corrected with cfo_hz from its own start, then
// the noise variance, the averaged channel estimate and the SNR. The
// caller fills in stf_start and ltf_start.
PreambleMeasurement measure_ltf_pair(const cvec& rx, std::size_t w1,
                                     double cfo_hz, double fs, Workspace& ws) {
  const std::size_t w2 = w1 + kNfft;
  fft_window_into(rx, w1, cfo_hz, fs, static_cast<double>(w1), ws.win_a);
  fft_window_into(rx, w2, cfo_hz, fs, static_cast<double>(w2), ws.win_b);
  PreambleMeasurement pm;
  pm.cfo_hz = cfo_hz;
  pm.noise_var = ltf_noise_var(ws.win_a, ws.win_b);
  pm.chan = average_estimates(
      {estimate_from_ltf(ws.win_a), estimate_from_ltf(ws.win_b)});
  pm.snr_db = to_db(std::max(pm.chan.mean_gain_power(), 1e-12) / pm.noise_var);
  return pm;
}

// Demodulate/equalize one OFDM symbol whose 80 samples start at
// `sym_start`, leaving the equalized data and per-carrier noise variances
// in ws.sym_freq/data48/noise48. Only the symbol's FFT window is
// corrected.
void decode_symbol(const cvec& rx, double cfo_hz, double fs,
                   std::size_t sym_start, std::size_t backoff,
                   const ChannelEstimate& chan, double noise_var,
                   std::size_t symbol_index, Workspace& ws) {
  cvec& freq = ws.sym_freq;
  cvec& data48 = ws.data48;
  rvec& noise48 = ws.noise48;
  const std::size_t win = sym_start + kCpLen - backoff;
  fft_window_into(rx, win, cfo_hz, fs, static_cast<double>(win), freq);
  const PilotPhase pp = track_pilots(freq, chan, symbol_index);

  data48.resize(kNumDataCarriers);
  noise48.resize(kNumDataCarriers);
  const auto& dc = data_carriers();
  for (std::size_t i = 0; i < kNumDataCarriers; ++i) {
    const std::size_t b = bin_of(dc[i]);
    const cplx h = chan.h[b];
    const double hp = std::max(std::norm(h), 1e-12);
    data48[i] = freq[b] / h;
    noise48[i] = noise_var / hp;
  }
  apply_phase_correction(data48, pp);
}

// Shared back half of reception: channel-estimate in pm, symbols start
// right after the two LTF repetitions at pm.ltf_start, and each is
// corrected with pm.cfo_hz. The measurement moves into RxResult::preamble.
RxResult decode_after_ltf(const cvec& rx, double fs,
                          PreambleMeasurement measured,
                          std::size_t timing_backoff, Workspace& ws) {
  RxResult res;
  res.preamble = std::move(measured);
  const PreambleMeasurement& pm = res.preamble;
  const std::size_t backoff = std::min(pm.ltf_start, timing_backoff);
  const std::size_t payload = pm.ltf_start + 2 * kNfft;
  const cvec& data48 = ws.data48;

  if (rx.size() < payload + kSymbolLen) {
    res.fail_reason = "buffer too short for SIGNAL";
    return res;
  }
  decode_symbol(rx, pm.cfo_hz, fs, payload, backoff, pm.chan, pm.noise_var, 0,
                ws);
  const auto sig = decode_signal_symbol(
      data48,
      std::max(pm.noise_var / std::max(pm.chan.mean_gain_power(), 1e-12),
               1e-12),
      ws);
  if (!sig) {
    res.fail_reason = "SIGNAL decode failed";
    return res;
  }
  res.sig = *sig;
  res.header_ok = true;

  const Mcs& mcs = rate_set()[sig->rate_index];
  const std::size_t n_sym = n_data_symbols(sig->length, mcs);
  if (rx.size() < payload + (1 + n_sym) * kSymbolLen) {
    res.fail_reason = "buffer too short for payload";
    return res;
  }

  std::vector<std::vector<double>>& llr_per_symbol = ws.llr_per_symbol;
  llr_per_symbol.resize(n_sym);
  BitVec& hard = ws.hard_bits;
  cvec& nearest = ws.nearest;

  double evm_err = 0.0, evm_sig = 0.0;
  for (std::size_t s = 0; s < n_sym; ++s) {
    const std::size_t sym_start = payload + (1 + s) * kSymbolLen;
    decode_symbol(rx, pm.cfo_hz, fs, sym_start, backoff, pm.chan,
                  pm.noise_var, s + 1, ws);
    demodulate_soft_into(data48, mcs.modulation, ws.noise48,
                         llr_per_symbol[s]);
    // EVM against the nearest constellation points.
    demodulate_hard_into(data48, mcs.modulation, hard);
    nearest.resize(data48.size());
    modulate_into(hard, mcs.modulation, nearest);
    for (std::size_t i = 0; i < data48.size(); ++i) {
      evm_err += std::norm(data48[i] - nearest[i]);
      evm_sig += std::norm(nearest[i]);
    }
  }
  res.evm_snr_db = to_db(evm_sig / std::max(evm_err, 1e-12));

  auto psdu = decode_psdu(llr_per_symbol, *sig, ws);
  if (!psdu) {
    res.fail_reason = "payload decode failed";
    return res;
  }
  res.psdu = std::move(*psdu);
  res.ok = true;
  return res;
}

}  // namespace

std::optional<PreambleMeasurement> Receiver::measure_preamble(
    const cvec& rx, std::size_t search_from) const {
  cvec& corrected = ws_.corrected;
  cvec& win_a = ws_.win_a;
  cvec& win_b = ws_.win_b;
  cvec& freq_scratch = ws_.sym_freq;

  const double fs = cfg_.sample_rate_hz;
  const auto det = detect_packet(rx, search_from);
  std::size_t stf = 0;
  double coarse = 0.0;
  std::optional<std::size_t> ltf;
  if (det) {
    stf = det->stf_start;
    if (rx.size() < stf + kPreambleLen + kSymbolLen) return std::nullopt;
    // Coarse CFO from the STF body (skip the detection edge).
    win_a.assign(rx.begin() + static_cast<std::ptrdiff_t>(stf + 8),
                 rx.begin() + static_cast<std::ptrdiff_t>(stf + 152));
    coarse = coarse_cfo_hz(win_a, fs);
    // The first LTF symbol nominally starts at stf + 192; search around it.
    ltf = locate_ltf_corrected(rx, coarse, fs, stf + 150,
                               std::min(rx.size(), stf + 240), corrected);
  } else {
    // Low-SNR fallback: the STF autocorrelation plateau drowns near the
    // detection threshold, but a coherent cross-correlation against the
    // known 64-sample LTF has ~18 dB of processing gain. Locate the LTF
    // anywhere in the buffer, then estimate CFO from its repetition.
    auto raw_ltf = locate_ltf_earliest(rx, search_from, rx.size());
    if (!raw_ltf || *raw_ltf < 192 + kNfft) return std::nullopt;
    // The correlator may have locked onto the (identical) second
    // repetition: if the position 64 samples earlier also looks like an
    // LTF while 64 later does not, shift back.
    if (ltf_metric_at(rx, *raw_ltf - kNfft) >
        ltf_metric_at(rx, *raw_ltf + kNfft)) {
      *raw_ltf -= kNfft;
    }
    if (rx.size() < *raw_ltf + 2 * kNfft + kSymbolLen) return std::nullopt;
    win_b.assign(rx.begin() + static_cast<std::ptrdiff_t>(*raw_ltf),
                 rx.begin() +
                     static_cast<std::ptrdiff_t>(*raw_ltf + 2 * kNfft));
    coarse = fine_cfo_hz(win_b, fs);
    // Refine the location post-correction; it may land on the (identical)
    // second repetition, which the symmetric +-window below tolerates.
    ltf = locate_ltf_corrected(
        rx, coarse, fs, *raw_ltf - std::min<std::size_t>(*raw_ltf, 8),
        std::min(rx.size(), *raw_ltf + 8), corrected);
    if (!ltf) ltf = raw_ltf;
    stf = *ltf - 192;
  }
  if (!ltf) return std::nullopt;
  const std::size_t ltf_start = *ltf;
  if (rx.size() < ltf_start + 2 * kNfft) return std::nullopt;

  freq_scratch.resize(2 * kNfft);
  correct_window_into(rx, ltf_start, coarse, fs, freq_scratch);
  const double fine = fine_cfo_hz(freq_scratch, fs);
  const double total_cfo = coarse + fine;

  const std::size_t w1 = ltf_start - std::min(ltf_start, kTimingBackoff);
  PreambleMeasurement pm = measure_ltf_pair(rx, w1, total_cfo, fs, ws_);
  pm.stf_start = stf;
  pm.ltf_start = ltf_start;
  return pm;
}

RxResult Receiver::receive(const cvec& rx, std::size_t search_from) const {
  auto pm = measure_preamble(rx, search_from);
  if (!pm) {
    RxResult res;
    res.fail_reason = "no preamble detected";
    return res;
  }
  // Payload symbols start right after the second LTF repetition; the FFT
  // windows inside use the same back-off as the channel-estimate windows.
  return decode_after_ltf(rx, cfg_.sample_rate_hz, std::move(*pm),
                          kTimingBackoff, ws_);
}

RxResult Receiver::receive_payload(const cvec& rx, std::size_t payload_start,
                                   double cfo_hz) const {
  RxResult res;
  const double fs = cfg_.sample_rate_hz;

  // The payload begins with its own double-guard LTF: 32-sample GI2 then
  // two 64-sample symbols. Search a window wide enough for a few samples
  // of timing slop but short enough that the identical second repetition
  // (at +96) can never win the correlation.
  const auto ltf =
      locate_ltf_corrected(rx, cfo_hz, fs, payload_start,
                           std::min(rx.size(), payload_start + kNfft),
                           ws_.corrected);
  if (!ltf) {
    res.fail_reason = "payload LTF not found";
    return res;
  }
  const std::size_t ltf_start = *ltf;
  if (rx.size() < ltf_start + 2 * kNfft + kSymbolLen) {
    res.fail_reason = "buffer too short for payload LTF";
    return res;
  }
  const std::size_t w1 = ltf_start - std::min(ltf_start, kTimingBackoff);
  PreambleMeasurement pm = measure_ltf_pair(rx, w1, cfo_hz, fs, ws_);
  pm.stf_start = payload_start;
  pm.ltf_start = ltf_start;
  return decode_after_ltf(rx, fs, std::move(pm), kTimingBackoff, ws_);
}

}  // namespace jmb::phy
