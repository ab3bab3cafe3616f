// Tests for the waveform-level PHY: preambles, OFDM mod/demod, sync,
// channel estimation, and the full TX -> RX loopback chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/rng.h"
#include "phy/chanest.h"
#include "phy/frame.h"
#include "phy/modulation.h"
#include "phy/ofdm.h"
#include "phy/preamble.h"
#include "phy/receiver.h"
#include "phy/sync.h"
#include "phy/transmitter.h"
#include "phy/workspace.h"

namespace jmb::phy {
namespace {

std::string mcs_name(const Mcs& mcs) {
  return "modulation " + std::to_string(static_cast<int>(mcs.modulation)) +
         " code rate " + std::to_string(static_cast<int>(mcs.code_rate));
}

ByteVec random_psdu(Rng& rng, std::size_t n) {
  ByteVec p(n);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

// The inverses of map_subcarriers and ofdm_modulate, as the receiver
// computes them inside its per-symbol loop.
cvec extract_data(const cvec& freq_symbol) {
  cvec out(kNumDataCarriers);
  const auto& dc = data_carriers();
  for (std::size_t i = 0; i < kNumDataCarriers; ++i) {
    out[i] = freq_symbol[bin_of(dc[i])];
  }
  return out;
}

cvec extract_pilots(const cvec& freq_symbol) {
  cvec out(kNumPilots);
  const auto& pc = pilot_carriers();
  for (std::size_t i = 0; i < kNumPilots; ++i) {
    out[i] = freq_symbol[bin_of(pc[i])];
  }
  return out;
}

/// Strip the CP (the FFT window starting `cp_skip` samples in) and FFT.
cvec ofdm_demodulate(const cvec& time_symbol, std::size_t cp_skip = kCpLen) {
  const auto first = time_symbol.begin() + static_cast<std::ptrdiff_t>(cp_skip);
  return fft(cvec(first, first + static_cast<std::ptrdiff_t>(kNfft)));
}

/// correct_cfo_into into a fresh vector.
cvec correct_cfo(const cvec& x, double cfo_hz, double sample_rate_hz) {
  cvec out(x.size());
  correct_cfo_into(x, cfo_hz, sample_rate_hz, 0.0, out);
  return out;
}

cvec add_noise(const cvec& x, double snr_db, Rng& rng, double signal_power) {
  const double nvar = signal_power / from_db(snr_db);
  cvec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = x[i] + rng.cgaussian(nvar);
  }
  return out;
}

TEST(Preamble, StfIsPeriodic16) {
  const cvec& s = stf_time();
  ASSERT_EQ(s.size(), kStfLen);
  for (std::size_t i = 0; i + 16 < s.size(); ++i) {
    EXPECT_NEAR(std::abs(s[i] - s[i + 16]), 0.0, 1e-12);
  }
}

TEST(Preamble, LtfGuardIsCyclic) {
  const cvec& l = ltf_time();
  ASSERT_EQ(l.size(), kLtfLen);
  // Guard = last 32 samples of the symbol; symbols repeat.
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_NEAR(std::abs(l[i] - l[i + kNfft]), 0.0, 1e-12);
  }
  for (std::size_t i = 0; i < kNfft; ++i) {
    EXPECT_NEAR(std::abs(l[32 + i] - l[32 + kNfft + i]), 0.0, 1e-12);
  }
}

TEST(Preamble, LtfSpectrumIsPlusMinusOne) {
  const cvec& lf = ltf_freq();
  int used = 0;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) {
      EXPECT_EQ(std::abs(lf[bin_of(k)]), 0.0);
      continue;
    }
    EXPECT_NEAR(std::abs(lf[bin_of(k)]), 1.0, 1e-12);
    ++used;
  }
  EXPECT_EQ(used, 52);
}

TEST(Ofdm, MapExtractRoundTrip) {
  Rng rng(1);
  const cvec data = rng.cgaussian_vec(kNumDataCarriers);
  const cvec freq = map_subcarriers(data, 3);
  const cvec back = extract_data(freq);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(back[i] - data[i]), 0.0, 1e-12);
  }
  // Pilots carry the polarity of symbol 3.
  const cvec pilots = extract_pilots(freq);
  const double pol = pilot_polarity(3);
  EXPECT_NEAR(pilots[0].real(), pol * 1.0, 1e-12);
  EXPECT_NEAR(pilots[3].real(), pol * -1.0, 1e-12);
}

TEST(Ofdm, ModulateDemodulateRoundTrip) {
  Rng rng(2);
  const cvec data = rng.cgaussian_vec(kNumDataCarriers);
  const cvec freq = map_subcarriers(data, 0);
  const cvec time = ofdm_modulate(freq);
  ASSERT_EQ(time.size(), kSymbolLen);
  // CP really is a cyclic prefix.
  for (std::size_t i = 0; i < kCpLen; ++i) {
    EXPECT_NEAR(std::abs(time[i] - time[i + kNfft]), 0.0, 1e-12);
  }
  const cvec rt = ofdm_demodulate(time);
  for (std::size_t b = 0; b < kNfft; ++b) {
    EXPECT_NEAR(std::abs(rt[b] - freq[b]), 0.0, 1e-9);
  }
}

TEST(Ofdm, CpSkipIntroducesKnownPhaseRamp) {
  Rng rng(3);
  const cvec freq = map_subcarriers(rng.cgaussian_vec(kNumDataCarriers), 0);
  const cvec time = ofdm_modulate(freq);
  const std::size_t skip = kCpLen - 4;  // window starts 4 samples early
  const cvec shifted = ofdm_demodulate(time, skip);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    const std::size_t b = bin_of(k);
    // 4-sample early window rotates bin k by e^{-j 2 pi k 4/64}... verify
    // magnitude preserved and the ramp matches.
    EXPECT_NEAR(std::abs(shifted[b]), std::abs(freq[b]), 1e-9);
    const cplx expected = freq[b] * phasor(-kTwoPi * k * 4.0 / 64.0);
    EXPECT_NEAR(std::abs(shifted[b] - expected), 0.0, 1e-9) << k;
  }
}

TEST(Sync, DetectsPreambleInNoise) {
  Rng rng(4);
  cvec buf = rng.cgaussian_vec(500, 1e-4);  // noise floor
  const cvec pre = preamble_time();
  const std::size_t at = 137;
  for (std::size_t i = 0; i < pre.size(); ++i) buf[at + i] += pre[i];
  const auto det = detect_packet(buf);
  ASSERT_TRUE(det.has_value());
  EXPECT_NEAR(static_cast<double>(det->stf_start), static_cast<double>(at),
              16.0);
}

TEST(Sync, NoFalseDetectInPureNoise) {
  Rng rng(5);
  const cvec buf = rng.cgaussian_vec(2000, 1.0);
  const auto det = detect_packet(buf);
  EXPECT_FALSE(det.has_value());
}

TEST(Sync, CoarseCfoAccuracy) {
  Rng rng(6);
  const double fs = 10e6;
  for (double f : {-50e3, -8e3, 0.0, 3e3, 40e3}) {
    cvec stf = stf_time();
    for (std::size_t n = 0; n < stf.size(); ++n) {
      stf[n] *= phasor(kTwoPi * f * static_cast<double>(n) / fs);
      stf[n] += rng.cgaussian(1e-7);
    }
    EXPECT_NEAR(coarse_cfo_hz(stf, fs), f, 30.0) << f;
  }
}

TEST(Sync, FineCfoAccuracy) {
  Rng rng(7);
  const double fs = 10e6;
  const cvec& sym = ltf_symbol_time();
  for (double f : {-20e3, -1e3, 0.0, 2e3, 30e3}) {
    cvec two;
    two.insert(two.end(), sym.begin(), sym.end());
    two.insert(two.end(), sym.begin(), sym.end());
    for (std::size_t n = 0; n < two.size(); ++n) {
      two[n] *= phasor(kTwoPi * f * static_cast<double>(n) / fs);
      two[n] += rng.cgaussian(1e-7);
    }
    EXPECT_NEAR(fine_cfo_hz(two, fs), f, 25.0) << f;
  }
}

TEST(Sync, LocateLtfFindsSymbolStart) {
  Rng rng(8);
  cvec buf = rng.cgaussian_vec(600, 1e-4);
  const cvec& l = ltf_time();
  const std::size_t at = 200;  // guard starts here; symbol 1 at at+32
  for (std::size_t i = 0; i < l.size(); ++i) buf[at + i] += l[i];
  const auto pos = locate_ltf(buf, 150, 350);
  ASSERT_TRUE(pos.has_value());
  // Correlation peaks at symbol 1 or (identical) symbol 2.
  EXPECT_TRUE(*pos == at + 32 || *pos == at + 32 + kNfft) << *pos;
}

TEST(Sync, CorrectCfoInvertsRotation) {
  Rng rng(9);
  const double fs = 10e6, f = 12.5e3;
  const cvec x = rng.cgaussian_vec(256);
  cvec rotated(x.size());
  for (std::size_t n = 0; n < x.size(); ++n) {
    rotated[n] = x[n] * phasor(kTwoPi * f * static_cast<double>(n) / fs);
  }
  const cvec fixed = correct_cfo(rotated, f, fs);
  for (std::size_t n = 0; n < x.size(); ++n) {
    EXPECT_NEAR(std::abs(fixed[n] - x[n]), 0.0, 1e-9);
  }
}

TEST(ChanEst, FlatChannelEstimatesGain) {
  const cplx g{0.8, -0.6};
  cvec rx = ltf_freq();
  for (cplx& v : rx) v *= g;
  const ChannelEstimate est = estimate_from_ltf(rx);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    EXPECT_NEAR(std::abs(est.at(k) - g), 0.0, 1e-12);
  }
  EXPECT_NEAR(est.mean_gain_power(), std::norm(g), 1e-12);
}

TEST(ChanEst, MeanRatioRecoversRotation) {
  Rng rng(10);
  ChannelEstimate a;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    a.set(k, rng.cgaussian());
  }
  ChannelEstimate b = a;
  const double phi = 0.42;
  b.rotate(phi);
  const cplx ratio = b.mean_ratio(a);
  EXPECT_NEAR(std::arg(ratio), phi, 1e-12);
  EXPECT_NEAR(std::abs(ratio), 1.0, 1e-12);
}

TEST(ChanEst, AveragingReducesNoise) {
  Rng rng(11);
  ChannelEstimate truth;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    truth.set(k, cplx{1.0, 0.0});
  }
  const double nvar = 0.01;
  auto noisy = [&] {
    ChannelEstimate e = truth;
    for (int k = -26; k <= 26; ++k) {
      if (k == 0) continue;
      e.set(k, e.at(k) + rng.cgaussian(nvar));
    }
    return e;
  };
  double err1 = 0.0, err8 = 0.0;
  for (int trial = 0; trial < 50; ++trial) {
    err1 += std::norm(noisy().at(1) - truth.at(1));
    std::vector<ChannelEstimate> es;
    for (int i = 0; i < 8; ++i) es.push_back(noisy());
    err8 += std::norm(average_estimates(es).at(1) - truth.at(1));
  }
  EXPECT_LT(err8, err1 / 4.0);  // expect ~ err1/8
}

TEST(ChanEst, PilotTrackerMeasuresCommonPhase) {
  Rng rng(12);
  ChannelEstimate chan;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    chan.set(k, rng.cgaussian() + cplx{1.5, 0.0});
  }
  const double phi = 0.2, slope = 0.005;
  cvec freq = map_subcarriers(cvec(kNumDataCarriers, cplx{1.0, 0.0}), 4);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    const std::size_t b = bin_of(k);
    freq[b] *= chan.h[b] * phasor(phi + slope * k);
  }
  const PilotPhase pp = track_pilots(freq, chan, 4);
  EXPECT_NEAR(pp.common, phi, 1e-9);
  EXPECT_NEAR(pp.slope, slope, 1e-9);

  cvec data = extract_data(freq);
  const auto& dc = data_carriers();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] /= chan.h[bin_of(dc[i])];
  }
  apply_phase_correction(data, pp);
  for (const cplx& d : data) {
    EXPECT_NEAR(std::abs(d - cplx{1.0, 0.0}), 0.0, 1e-9);
  }
}

TEST(Frame, SignalSymbolRoundTrip) {
  Workspace ws;
  for (std::size_t rate = 0; rate < rate_set().size(); ++rate) {
    for (std::size_t len : {1u, 64u, 1500u, 4095u}) {
      const cvec sym = build_signal_symbol({rate, len});
      const auto dec = decode_signal_symbol(sym, 0.01, ws);
      ASSERT_TRUE(dec.has_value());
      EXPECT_EQ(dec->rate_index, rate);
      EXPECT_EQ(dec->length, len);
    }
  }
  EXPECT_THROW((void)build_signal_symbol({0, 0}), std::invalid_argument);
  EXPECT_THROW((void)build_signal_symbol({0, 4096}), std::invalid_argument);
}

TEST(Frame, NDataSymbols) {
  const Mcs bpsk_half{Modulation::kBpsk, CodeRate::kHalf};
  // 16 + 8 + 6 = 30 bits at 24 dbps -> 2 symbols.
  EXPECT_EQ(n_data_symbols(1, bpsk_half), 2u);
  const Mcs q64{Modulation::kQam64, CodeRate::kThreeQuarters};
  // 16 + 12000 + 6 = 12022 bits at 216 dbps -> 56 symbols.
  EXPECT_EQ(n_data_symbols(1500, q64), 56u);
}

class PsduRoundTrip : public ::testing::TestWithParam<Mcs> {};

// Per-symbol LLRs of clean constellation points at a flat noise variance.
std::vector<std::vector<double>> clean_llrs(const std::vector<cvec>& symbols,
                                            Modulation m) {
  const rvec noise(kNumDataCarriers, 0.05);
  std::vector<std::vector<double>> llr(symbols.size());
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    demodulate_soft_into(symbols[s], m, noise, llr[s]);
  }
  return llr;
}

TEST_P(PsduRoundTrip, CleanChannel) {
  const Mcs mcs = GetParam();
  Rng rng(13);
  Workspace ws;
  for (std::size_t len : {1u, 100u, 1500u}) {
    const ByteVec psdu = random_psdu(rng, len);
    const auto symbols = encode_psdu(psdu, mcs);
    EXPECT_EQ(symbols.size(), n_data_symbols(len, mcs));
    const auto decoded = decode_psdu(clean_llrs(symbols, mcs.modulation),
                                     {rate_index(mcs), len}, ws);
    ASSERT_TRUE(decoded.has_value()) << mcs_name(mcs) << " len " << len;
    EXPECT_EQ(*decoded, psdu);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRates, PsduRoundTrip, ::testing::ValuesIn(rate_set()),
    [](const ::testing::TestParamInfo<Mcs>& info) {
      return "mcs" + std::to_string(info.index);
    });

TEST(Frame, ScramblerSeedRecovered) {
  // Different seeds must all decode (the receiver self-recovers the seed).
  const Mcs mcs{Modulation::kQpsk, CodeRate::kHalf};
  Rng rng(14);
  const ByteVec psdu = random_psdu(rng, 200);
  Workspace ws;
  for (unsigned seed : {1u, 0x5Du, 0x7Fu, 0x2Au}) {
    const auto symbols = encode_psdu(psdu, mcs, seed);
    const auto decoded = decode_psdu(clean_llrs(symbols, mcs.modulation),
                                     {rate_index(mcs), psdu.size()}, ws);
    ASSERT_TRUE(decoded.has_value()) << seed;
    EXPECT_EQ(*decoded, psdu);
  }
}

// Full loopback: TX waveform -> (delay + attenuation + CFO + noise) -> RX.
class LoopbackTest : public ::testing::TestWithParam<Mcs> {};

TEST_P(LoopbackTest, DecodesThroughImpairedChannel) {
  const Mcs mcs = GetParam();
  Rng rng(15 + rate_index(mcs));
  const PhyConfig cfg;
  const Transmitter tx(cfg);
  Workspace ws;
  const Receiver rx(ws, cfg);

  const ByteVec psdu = random_psdu(rng, 300);
  const TxFrame frame = tx.build_frame(psdu, mcs);
  const double sig_power = mean_power(frame.samples);

  // 30 dB SNR, 4.7 kHz CFO, flat channel with gain/phase, 50-sample delay.
  const cplx g{0.6, 0.45};
  const double cfo = 4.7e3;
  cvec buf(1200 + frame.samples.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = rng.cgaussian(sig_power / from_db(30.0));
  }
  for (std::size_t i = 0; i < frame.samples.size(); ++i) {
    const double t = static_cast<double>(i);
    buf[50 + i] +=
        frame.samples[i] * g * phasor(kTwoPi * cfo * t / cfg.sample_rate_hz);
  }

  const RxResult res = rx.receive(buf);
  ASSERT_TRUE(res.ok) << res.fail_reason << " (" << mcs_name(mcs) << ")";
  EXPECT_EQ(res.psdu, psdu);
  EXPECT_NEAR(res.preamble.cfo_hz, cfo, 200.0);
  EXPECT_GT(res.evm_snr_db, 15.0);
  EXPECT_NEAR(res.preamble.snr_db, 30.0, 6.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllRates, LoopbackTest, ::testing::ValuesIn(rate_set()),
    [](const ::testing::TestParamInfo<Mcs>& info) {
      return "mcs" + std::to_string(info.index);
    });

TEST(Loopback, FailsGracefullyAtVeryLowSnr) {
  Rng rng(16);
  const PhyConfig cfg;
  const Transmitter tx(cfg);
  Workspace ws;
  const Receiver rx(ws, cfg);
  const Mcs mcs{Modulation::kQam64, CodeRate::kThreeQuarters};
  const ByteVec psdu = random_psdu(rng, 500);
  const TxFrame frame = tx.build_frame(psdu, mcs);
  const cvec noisy =
      add_noise(frame.samples, -5.0, rng, mean_power(frame.samples));
  const RxResult res = rx.receive(noisy);
  // At -5 dB SNR 64-QAM 3/4 must not decode; and must not crash.
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.fail_reason.empty());
}

TEST(Loopback, MultipathChannelWithinCp) {
  Rng rng(17);
  const PhyConfig cfg;
  const Transmitter tx(cfg);
  Workspace ws;
  const Receiver rx(ws, cfg);
  const Mcs mcs{Modulation::kQam16, CodeRate::kHalf};
  const ByteVec psdu = random_psdu(rng, 400);
  const TxFrame frame = tx.build_frame(psdu, mcs);

  // Two-tap channel: direct + echo at 6 samples, well inside the 16-sample CP.
  const cplx h0{1.0, 0.0}, h1{0.35, -0.2};
  cvec buf(200 + frame.samples.size() + 10, cplx{});
  for (std::size_t i = 0; i < frame.samples.size(); ++i) {
    buf[100 + i] += frame.samples[i] * h0;
    buf[106 + i] += frame.samples[i] * h1;
  }
  const double sp = mean_power(frame.samples);
  for (auto& v : buf) v += rng.cgaussian(sp / from_db(25.0));

  const RxResult res = rx.receive(buf);
  ASSERT_TRUE(res.ok) << res.fail_reason;
  EXPECT_EQ(res.psdu, psdu);
}


// ---- receiver parity: corrected windows vs the whole-buffer correction ----
//
// The receiver CFO-corrects only the samples it reads. The reference below
// is the receive chain as it was written before that change, kept here
// verbatim in behaviour: every step corrects the whole buffer with
// correct_cfo and then reads its windows. Both must give the same doubles.

namespace ref {

constexpr std::size_t kBackoff = 4;  // Receiver::kTimingBackoff

const FftPlan& plan64() {
  static const FftPlan kPlan(kNfft);
  return kPlan;
}

cvec fft_window(const cvec& x, std::size_t pos) {
  cvec out(x.begin() + static_cast<std::ptrdiff_t>(pos),
           x.begin() + static_cast<std::ptrdiff_t>(pos + kNfft));
  plan64().forward(out);
  return out;
}

double ltf_noise_var(const cvec& f1, const cvec& f2) {
  double acc = 0.0;
  int n = 0;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    acc += std::norm(f1[bin_of(k)] - f2[bin_of(k)]);
    ++n;
  }
  return std::max(acc / (2.0 * n), 1e-12);
}

PreambleMeasurement from_ltf_windows(std::size_t stf, std::size_t ltf,
                                     double cfo, const cvec& a,
                                     const cvec& b) {
  PreambleMeasurement pm;
  pm.stf_start = stf;
  pm.ltf_start = ltf;
  pm.cfo_hz = cfo;
  pm.noise_var = ltf_noise_var(a, b);
  pm.chan = average_estimates({estimate_from_ltf(a), estimate_from_ltf(b)});
  pm.snr_db = to_db(std::max(pm.chan.mean_gain_power(), 1e-12) / pm.noise_var);
  return pm;
}

// What the reference's LTF search read: the coarse-corrected buffer and
// the locate_ltf window [from, to).
struct LtfSearch {
  cvec corrected;
  std::size_t from = 0, to = 0;
};

std::optional<PreambleMeasurement> measure_preamble(
    const PhyConfig& cfg, const cvec& rx, std::size_t search_from,
    LtfSearch* search = nullptr) {
  const double fs = cfg.sample_rate_hz;
  const auto det = detect_packet(rx, search_from);
  std::size_t stf = 0;
  double coarse = 0.0;
  std::optional<std::size_t> ltf;
  cvec corrected;
  if (det) {
    stf = det->stf_start;
    if (rx.size() < stf + kPreambleLen + kSymbolLen) return std::nullopt;
    const cvec body(rx.begin() + static_cast<std::ptrdiff_t>(stf + 8),
                    rx.begin() + static_cast<std::ptrdiff_t>(stf + 152));
    coarse = coarse_cfo_hz(body, fs);
    corrected = correct_cfo(rx, coarse, fs);
    if (search) *search = {corrected, stf + 150, std::min(rx.size(), stf + 240)};
    ltf = locate_ltf(corrected, stf + 150, std::min(rx.size(), stf + 240));
  } else {
    auto raw = locate_ltf_earliest(rx, search_from, rx.size());
    if (!raw || *raw < 192 + kNfft) return std::nullopt;
    if (ltf_metric_at(rx, *raw - kNfft) > ltf_metric_at(rx, *raw + kNfft)) {
      *raw -= kNfft;
    }
    if (rx.size() < *raw + 2 * kNfft + kSymbolLen) return std::nullopt;
    const cvec pair(rx.begin() + static_cast<std::ptrdiff_t>(*raw),
                    rx.begin() + static_cast<std::ptrdiff_t>(*raw + 2 * kNfft));
    coarse = fine_cfo_hz(pair, fs);
    corrected = correct_cfo(rx, coarse, fs);
    if (search) {
      *search = {corrected, *raw - std::min<std::size_t>(*raw, 8),
                 std::min(rx.size(), *raw + 8)};
    }
    ltf = locate_ltf(corrected, *raw - std::min<std::size_t>(*raw, 8),
                     std::min(rx.size(), *raw + 8));
    if (!ltf) ltf = raw;
    stf = *ltf - 192;
  }
  if (!ltf) return std::nullopt;
  const std::size_t ltf_start = *ltf;
  if (rx.size() < ltf_start + 2 * kNfft) return std::nullopt;
  const cvec pair(
      corrected.begin() + static_cast<std::ptrdiff_t>(ltf_start),
      corrected.begin() + static_cast<std::ptrdiff_t>(ltf_start + 2 * kNfft));
  const double total = coarse + fine_cfo_hz(pair, fs);
  corrected = correct_cfo(rx, total, fs);
  const std::size_t w1 = ltf_start - std::min(ltf_start, kBackoff);
  return from_ltf_windows(stf, ltf_start, total, fft_window(corrected, w1),
                          fft_window(corrected, w1 + kNfft));
}

RxResult decode_after_ltf(const cvec& corrected,
                          const PreambleMeasurement& pm) {
  RxResult res;
  res.preamble = pm;
  const std::size_t backoff = std::min(pm.ltf_start, kBackoff);
  const std::size_t payload = pm.ltf_start + 2 * kNfft;
  const auto equalize = [&](std::size_t sym_start, std::size_t index,
                            cvec& data48, rvec& noise48) {
    const cvec freq = fft_window(corrected, sym_start + kCpLen - backoff);
    const PilotPhase pp = track_pilots(freq, pm.chan, index);
    data48.resize(kNumDataCarriers);
    noise48.resize(kNumDataCarriers);
    for (std::size_t i = 0; i < kNumDataCarriers; ++i) {
      const cplx h = pm.chan.h[bin_of(data_carriers()[i])];
      data48[i] = freq[bin_of(data_carriers()[i])] / h;
      noise48[i] = pm.noise_var / std::max(std::norm(h), 1e-12);
    }
    apply_phase_correction(data48, pp);
  };
  if (corrected.size() < payload + kSymbolLen) {
    res.fail_reason = "buffer too short for SIGNAL";
    return res;
  }
  cvec data48;
  rvec noise48;
  equalize(payload, 0, data48, noise48);
  Workspace ws;  // the decode kernels' scratch, fresh per frame
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
  if (corrected.size() < payload + (1 + n_sym) * kSymbolLen) {
    res.fail_reason = "buffer too short for payload";
    return res;
  }
  std::vector<std::vector<double>> llr(n_sym);
  BitVec hard;
  cvec nearest;
  double evm_err = 0.0, evm_sig = 0.0;
  for (std::size_t s = 0; s < n_sym; ++s) {
    equalize(payload + (1 + s) * kSymbolLen, s + 1, data48, noise48);
    demodulate_soft_into(data48, mcs.modulation, noise48, llr[s]);
    demodulate_hard_into(data48, mcs.modulation, hard);
    nearest.resize(data48.size());
    modulate_into(hard, mcs.modulation, nearest);
    for (std::size_t i = 0; i < data48.size(); ++i) {
      evm_err += std::norm(data48[i] - nearest[i]);
      evm_sig += std::norm(nearest[i]);
    }
  }
  res.evm_snr_db = to_db(evm_sig / std::max(evm_err, 1e-12));
  const auto psdu = decode_psdu(llr, *sig, ws);
  if (!psdu) {
    res.fail_reason = "payload decode failed";
    return res;
  }
  res.psdu = *psdu;
  res.ok = true;
  return res;
}

RxResult receive(const PhyConfig& cfg, const cvec& rx) {
  const auto pm = measure_preamble(cfg, rx, 0);
  if (!pm) {
    RxResult res;
    res.fail_reason = "no preamble detected";
    return res;
  }
  return decode_after_ltf(correct_cfo(rx, pm->cfo_hz, cfg.sample_rate_hz),
                          *pm);
}

RxResult receive_payload(const PhyConfig& cfg, const cvec& rx,
                         std::size_t payload_start, double cfo_hz) {
  RxResult res;
  const cvec corrected = correct_cfo(rx, cfo_hz, cfg.sample_rate_hz);
  const auto ltf = locate_ltf(corrected, payload_start,
                              std::min(rx.size(), payload_start + kNfft));
  if (!ltf) {
    res.fail_reason = "payload LTF not found";
    return res;
  }
  if (corrected.size() < *ltf + 2 * kNfft + kSymbolLen) {
    res.fail_reason = "buffer too short for payload LTF";
    return res;
  }
  const std::size_t w1 = *ltf - std::min(*ltf, kBackoff);
  return decode_after_ltf(
      corrected,
      from_ltf_windows(payload_start, *ltf, cfo_hz, fft_window(corrected, w1),
                       fft_window(corrected, w1 + kNfft)));
}

}  // namespace ref

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

bool same_cvec(const cvec& a, const cvec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0);
}

void expect_same_preamble(const PreambleMeasurement& got,
                          const PreambleMeasurement& want,
                          const std::string& where) {
  EXPECT_EQ(got.stf_start, want.stf_start) << where;
  EXPECT_EQ(got.ltf_start, want.ltf_start) << where;
  EXPECT_EQ(bits_of(got.cfo_hz), bits_of(want.cfo_hz)) << where;
  EXPECT_TRUE(same_cvec(got.chan.h, want.chan.h)) << where;
  EXPECT_EQ(bits_of(got.noise_var), bits_of(want.noise_var)) << where;
  EXPECT_EQ(bits_of(got.snr_db), bits_of(want.snr_db)) << where;
}

void expect_same_result(const RxResult& got, const RxResult& want,
                        const std::string& where) {
  EXPECT_EQ(got.ok, want.ok) << where;
  EXPECT_EQ(got.fail_reason, want.fail_reason) << where;
  EXPECT_EQ(got.header_ok, want.header_ok) << where;
  EXPECT_EQ(got.sig.rate_index, want.sig.rate_index) << where;
  EXPECT_EQ(got.sig.length, want.sig.length) << where;
  EXPECT_EQ(got.psdu, want.psdu) << where;
  EXPECT_EQ(bits_of(got.evm_snr_db), bits_of(want.evm_snr_db)) << where;
  expect_same_preamble(got.preamble, want.preamble, where);
}

// `got`, the workspace's corrected buffer after an LTF search over
// [from, to) of `want` (the whole-buffer correction), holds want's bits at
// every sample locate_ltf reads there, [from, to' + 63) with
// to' = min(to, size - 64), and elsewhere NaN (never written) or want's
// bits. So no read sample is left uncorrected, and none is corrected
// with another CFO.
void expect_search_corrected(const cvec& got, const cvec& want,
                             std::size_t from, std::size_t to,
                             const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  std::size_t lo = 0, hi = 0;
  if (want.size() >= kNfft && from < want.size()) {
    const std::size_t last = std::min(to, want.size() - kNfft);
    if (from < last) {
      lo = from;
      hi = last + kNfft - 1;
    }
  }
  std::size_t bad = 0;
  for (std::size_t n = 0; n < got.size(); ++n) {
    const bool same = std::memcmp(&got[n], &want[n], sizeof(cplx)) == 0;
    const bool untouched = std::isnan(got[n].real());
    if (n >= lo && n < hi ? !same : !(same || untouched)) ++bad;
  }
  EXPECT_EQ(bad, 0u) << where << ": search [" << lo << ", " << hi << ")";
}

// A receiver on a workspace whose buffers hold NaN: a sample read before
// it is corrected poisons what the receiver computes from it.
struct PoisonedReceiver {
  Workspace ws;
  Receiver rx;
  explicit PoisonedReceiver(const PhyConfig& cfg) : rx(ws, cfg) {}
  Receiver& poisoned(std::size_t n) {
    const cplx nan{std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::quiet_NaN()};
    for (cvec* v : {&ws.corrected, &ws.win_a, &ws.win_b, &ws.sym_freq}) {
      v->assign(n + 256, nan);
    }
    return rx;
  }
};

// `frame` at sample `at` of an n-sample buffer of noise at `snr_db` below
// the frame's power, with a `cfo_hz` rotation and a fixed complex gain.
cvec frame_in_noise(const TxFrame& frame, std::size_t at, std::size_t n,
                    double snr_db, double cfo_hz, double fs, Rng& rng) {
  const double nvar = mean_power(frame.samples) / from_db(snr_db);
  cvec buf(n);
  for (cplx& v : buf) v = rng.cgaussian(nvar);
  const cplx g{0.7, -0.4};
  for (std::size_t i = 0; i < frame.samples.size() && at + i < n; ++i) {
    const double t = static_cast<double>(at + i);
    buf[at + i] += frame.samples[i] * g * phasor(kTwoPi * cfo_hz * t / fs);
  }
  return buf;
}

TEST(ReceiverParity, PreambleAndReceiveMatchTheWholeBufferCorrection) {
  const PhyConfig cfg;
  const Transmitter tx(cfg);
  Rng rng(801);
  PoisonedReceiver pr(cfg);
  std::size_t fallbacks = 0;
  std::size_t decoded = 0;
  for (const double snr : {30.0, 15.0, 6.0, 2.0, -1.0, -4.0}) {
    for (int trial = 0; trial < 6; ++trial) {
      const Mcs& mcs = rate_set()[static_cast<std::size_t>(trial) % 4];
      const TxFrame frame = tx.build_frame(random_psdu(rng, 120), mcs);
      const auto at = static_cast<std::size_t>(rng.uniform_int(20, 600));
      const double cfo = rng.uniform(-20e3, 20e3);
      const cvec buf =
          frame_in_noise(frame, at, at + frame.samples.size() + 300, snr, cfo,
                         cfg.sample_rate_hz, rng);
      const std::string where = "snr " + std::to_string(snr) + " trial " +
                                std::to_string(trial);
      ref::LtfSearch search;
      const auto want = ref::measure_preamble(cfg, buf, 0, &search);
      const auto got = pr.poisoned(buf.size()).measure_preamble(buf);
      ASSERT_EQ(got.has_value(), want.has_value()) << where;
      if (want) {
        expect_same_preamble(*got, *want, where);
        expect_search_corrected(pr.ws.corrected, search.corrected,
                                search.from, search.to, where);
        if (!detect_packet(buf)) ++fallbacks;
      }
      const RxResult want_rx = ref::receive(cfg, buf);
      if (want_rx.ok) ++decoded;
      expect_same_result(pr.poisoned(buf.size()).receive(buf), want_rx, where);
    }
  }
  // The sweep reaches the low-SNR fallback and still decodes at high SNR.
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(decoded, 6u);
}

TEST(ReceiverParity, LtfSearchWindowEdges) {
  // Repeating the STF's 16-sample period before it moves the detected
  // start away from the LTF, up to the search window's far edge
  // (stf + 239); cutting samples off the STF's tail moves the LTF towards
  // it, until the shortened STF is no longer detected (about stf + 163 at
  // this SNR). Each search must have corrected exactly what it read.
  const PhyConfig cfg;
  const Transmitter tx(cfg);
  Rng rng(802);
  PoisonedReceiver pr(cfg);
  const TxFrame frame = tx.build_frame(random_psdu(rng, 60), rate_set()[2]);
  std::size_t lo = 1000, hi = 0;
  for (int shift = -96; shift <= 64; ++shift) {
    TxFrame f = frame;
    if (shift > 0) {
      const auto cut = static_cast<std::ptrdiff_t>(shift);
      f.samples.erase(f.samples.begin() + 160 - cut, f.samples.begin() + 160);
    } else {
      // Sample -m of a 16-periodic STF is sample (16 - m % 16) % 16.
      const auto e = static_cast<std::size_t>(-shift);
      cvec head(e);
      for (std::size_t j = 0; j < e; ++j) {
        head[j] = frame.samples[(16 - (e - j) % 16) % 16];
      }
      f.samples.insert(f.samples.begin(), head.begin(), head.end());
    }
    const cvec buf = frame_in_noise(f, 150, 150 + f.samples.size() + 100,
                                    25.0, 3e3, cfg.sample_rate_hz, rng);
    const std::string where = "shift " + std::to_string(shift);
    ref::LtfSearch search;
    const auto want = ref::measure_preamble(cfg, buf, 0, &search);
    const auto got = pr.poisoned(buf.size()).measure_preamble(buf);
    ASSERT_EQ(got.has_value(), want.has_value()) << where;
    if (!want) continue;
    expect_same_preamble(*got, *want, where);
    expect_search_corrected(pr.ws.corrected, search.corrected, search.from,
                            search.to, where);
    if (detect_packet(buf)) {
      lo = std::min(lo, want->ltf_start - want->stf_start);
      hi = std::max(hi, want->ltf_start - want->stf_start);
    }
  }
  EXPECT_LT(lo, 170u);
  EXPECT_EQ(hi, 239u);
}

TEST(ReceiverParity, PayloadMatchesTheWholeBufferCorrection) {
  // receive_payload with the LTF at every offset of its 64-sample search
  // window, at several SNRs.
  const PhyConfig cfg;
  const Transmitter tx(cfg);
  Rng rng(803);
  PoisonedReceiver pr(cfg);
  for (const double snr : {25.0, 8.0, 0.0}) {
    const TxFrame frame = tx.build_frame(random_psdu(rng, 80), rate_set()[1]);
    const double cfo = rng.uniform(-5e3, 5e3);
    const std::size_t at = 300;
    const cvec buf = frame_in_noise(frame, at, at + frame.samples.size() + 50,
                                    snr, cfo, cfg.sample_rate_hz, rng);
    const std::size_t ltf1 = at + 192;  // first LTF symbol
    for (std::size_t ps = ltf1 - 63; ps <= ltf1 + 1; ++ps) {
      const std::string where =
          "snr " + std::to_string(snr) + " payload_start " + std::to_string(ps);
      const RxResult want = ref::receive_payload(cfg, buf, ps, cfo);
      expect_same_result(pr.poisoned(buf.size()).receive_payload(buf, ps, cfo),
                         want, where);
      expect_search_corrected(
          pr.ws.corrected, correct_cfo(buf, cfo, cfg.sample_rate_hz), ps,
          std::min(buf.size(), ps + kNfft), where);
    }
  }
}

TEST(ReceiverParity, PayloadStartInsideTheTimingBackoff) {
  // The LTF at samples 0..5: the FFT windows' back-off shrinks to the LTF
  // start, and payload_start < kTimingBackoff.
  const PhyConfig cfg;
  const Transmitter tx(cfg);
  Rng rng(804);
  PoisonedReceiver pr(cfg);
  const TxFrame frame = tx.build_frame(random_psdu(rng, 50), rate_set()[0]);
  for (std::size_t ltf1 = 0; ltf1 <= 5; ++ltf1) {
    TxFrame f = frame;
    f.samples.erase(f.samples.begin(),
                    f.samples.begin() + static_cast<std::ptrdiff_t>(192 - ltf1));
    const cvec buf = frame_in_noise(f, 0, f.samples.size() + 20, 20.0, 1e3,
                                    cfg.sample_rate_hz, rng);
    for (std::size_t ps = 0; ps <= ltf1; ++ps) {
      const std::string where =
          "ltf " + std::to_string(ltf1) + " payload_start " + std::to_string(ps);
      const RxResult want = ref::receive_payload(cfg, buf, ps, 1e3);
      EXPECT_TRUE(want.ok) << where << ": " << want.fail_reason;
      expect_same_result(pr.poisoned(buf.size()).receive_payload(buf, ps, 1e3),
                         want, where);
      expect_search_corrected(
          pr.ws.corrected, correct_cfo(buf, 1e3, cfg.sample_rate_hz), ps,
          std::min(buf.size(), ps + kNfft), where);
    }
  }
}

TEST(ReceiverParity, BuffersThatEndEarly) {
  // Every prefix length around the points where a step runs out of
  // samples: the STF near the end of the buffer, the LTF search clipped
  // by the buffer, and each "buffer too short" exit.
  const PhyConfig cfg;
  const Transmitter tx(cfg);
  Rng rng(805);
  PoisonedReceiver pr(cfg);
  const TxFrame frame = tx.build_frame(random_psdu(rng, 40), rate_set()[3]);
  const std::size_t at = 100;
  const cvec full = frame_in_noise(frame, at, at + frame.samples.size() + 40,
                                   22.0, -2.5e3, cfg.sample_rate_hz, rng);
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n <= full.size(); n += 7) cuts.push_back(n);
  for (const std::size_t edge :
       {at + 400, at + 192 + 128, at + 192 + 128 + 80, at + 192 + 64,
        full.size() - 40}) {
    for (std::size_t d = 0; d < 6; ++d) {
      cuts.push_back(edge - 3 + d);
    }
  }
  for (const std::size_t n : cuts) {
    const cvec buf(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(n));
    const std::string where = "length " + std::to_string(n);
    ref::LtfSearch search;
    const auto want = ref::measure_preamble(cfg, buf, 0, &search);
    const auto got = pr.poisoned(buf.size()).measure_preamble(buf);
    ASSERT_EQ(got.has_value(), want.has_value()) << where;
    if (want) {
      expect_same_preamble(*got, *want, where);
      expect_search_corrected(pr.ws.corrected, search.corrected, search.from,
                              search.to, where);
    }
    expect_same_result(pr.poisoned(buf.size()).receive(buf),
                       ref::receive(cfg, buf), where);
    for (const std::size_t ps : {at + 160, at + 192}) {
      const std::string at_ps = where + " payload_start " + std::to_string(ps);
      expect_same_result(
          pr.poisoned(buf.size()).receive_payload(buf, ps, -2.5e3),
          ref::receive_payload(cfg, buf, ps, -2.5e3), at_ps);
      expect_search_corrected(
          pr.ws.corrected, correct_cfo(buf, -2.5e3, cfg.sample_rate_hz), ps,
          std::min(buf.size(), ps + kNfft), at_ps);
    }
  }
}

}  // namespace
}  // namespace jmb::phy
