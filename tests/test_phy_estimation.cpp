// Tests for the estimation refinements: time-support channel denoising,
// the validated low-SNR preamble locator, and the LTF disambiguation
// helpers — the pieces that push JMB's channel snapshots to the accuracy
// distributed nulling needs.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/fft.h"
#include "dsp/rng.h"
#include "phy/chanest.h"
#include "phy/preamble.h"
#include "phy/receiver.h"
#include "phy/sync.h"
#include "phy/transmitter.h"
#include "phy/workspace.h"

namespace jmb::phy {
namespace {

ChannelEstimate from_taps(const cvec& taps) {
  ChannelEstimate est;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    cplx acc{};
    for (std::size_t l = 0; l < taps.size(); ++l) {
      acc += taps[l] * phasor(-kTwoPi * k * static_cast<double>(l) / 64.0);
    }
    est.set(k, acc);
  }
  return est;
}

TEST(Denoise, PreservesInSupportChannels) {
  // A channel whose impulse response fits the support must pass through
  // unchanged (the projection is idempotent on its own subspace).
  Rng rng(1);
  const cvec taps = rng.cgaussian_vec(6);
  const ChannelEstimate est = from_taps(taps);
  Workspace ws;
  const ChannelEstimate out = denoise_time_support(est, ws, 20);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    EXPECT_NEAR(std::abs(out.at(k) - est.at(k)), 0.0, 1e-9) << k;
  }
}

TEST(Denoise, RemovesOutOfSupportNoise) {
  Rng rng(2);
  const cvec taps = rng.cgaussian_vec(4);
  const ChannelEstimate clean = from_taps(taps);
  const double nvar = 0.05;
  Workspace ws;
  double err_before = 0.0, err_after = 0.0;
  for (int trial = 0; trial < 40; ++trial) {
    ChannelEstimate noisy = clean;
    for (int k = -26; k <= 26; ++k) {
      if (k == 0) continue;
      noisy.set(k, noisy.at(k) + rng.cgaussian(nvar));
    }
    const ChannelEstimate den = denoise_time_support(noisy, ws, 16);
    for (int k = -26; k <= 26; ++k) {
      if (k == 0) continue;
      err_before += std::norm(noisy.at(k) - clean.at(k));
      err_after += std::norm(den.at(k) - clean.at(k));
    }
  }
  // Noise power should drop roughly by support/52 ~ -5 dB; require 2 dB.
  EXPECT_LT(err_after, err_before * 0.63);
}

TEST(Denoise, IsIdempotent) {
  Rng rng(3);
  ChannelEstimate est;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    est.set(k, rng.cgaussian());
  }
  Workspace ws;
  const ChannelEstimate once = denoise_time_support(est, ws, 12);
  const ChannelEstimate twice = denoise_time_support(once, ws, 12);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    EXPECT_NEAR(std::abs(twice.at(k) - once.at(k)), 0.0, 1e-9);
  }
}

TEST(Denoise, InputValidation) {
  ChannelEstimate est;
  Workspace ws;
  EXPECT_THROW((void)denoise_time_support(est, ws, 0), std::invalid_argument);
  EXPECT_THROW((void)denoise_time_support(est, ws, 53), std::invalid_argument);
  // Full support = no-op projection (basis spans everything).
  (void)denoise_time_support(est, ws, 52);
}

TEST(LtfMetric, PeaksAtLtfPosition) {
  Rng rng(4);
  cvec buf = rng.cgaussian_vec(600, 1e-4);
  const cvec& sym = ltf_symbol_time();
  for (std::size_t i = 0; i < sym.size(); ++i) buf[250 + i] += sym[i];
  EXPECT_GT(ltf_metric_at(buf, 250), 0.8);
  EXPECT_LT(ltf_metric_at(buf, 100), 0.3);
  // Out of range: 0, no crash.
  EXPECT_EQ(ltf_metric_at(buf, buf.size()), 0.0);
}

TEST(LocateEarliest, PrefersFirstValidHeaderOverLaterSymbols) {
  // A preamble at 150 followed by lone LTF-shaped measurement symbols
  // later (stronger!): the earliest *validated* header must win.
  Rng rng(5);
  cvec buf = rng.cgaussian_vec(2000, 1e-3);
  const cvec pre = preamble_time();
  for (std::size_t i = 0; i < pre.size(); ++i) buf[150 + i] += pre[i];
  const cvec& sym = ltf_symbol_time();
  for (std::size_t i = 0; i < sym.size(); ++i) {
    buf[900 + i] += 3.0 * sym[i];  // much stronger lone symbol
    buf[1200 + i] += 3.0 * sym[i];
  }
  const auto pos = locate_ltf_earliest(buf, 0, buf.size());
  ASSERT_TRUE(pos.has_value());
  // LTF symbol 1 of the preamble sits at 150 + 192 = 342.
  EXPECT_NEAR(static_cast<double>(*pos), 342.0, 4.0);
}

TEST(LocateEarliest, NoFalsePositiveInNoise) {
  Rng rng(6);
  const cvec buf = rng.cgaussian_vec(3000, 1.0);
  EXPECT_FALSE(locate_ltf_earliest(buf, 0, buf.size()).has_value());
}

TEST(LowSnrFallback, MeasuresPreambleBelowStfThreshold) {
  // At ~4 dB waveform SNR the STF autocorrelation detector becomes
  // unreliable, but the coherent LTF fallback must still lock on.
  Rng rng(7);
  const cvec pre = preamble_time();
  const double sig_power = mean_power(pre);
  const double nvar = sig_power / from_db(4.0);
  int found = 0;
  Workspace ws;
  const Receiver rx(ws);
  for (int trial = 0; trial < 10; ++trial) {
    cvec buf(1500);
    for (auto& v : buf) v = rng.cgaussian(nvar);
    const std::size_t at = 400;
    const double cfo = rng.uniform(-8e3, 8e3);
    for (std::size_t i = 0; i < pre.size(); ++i) {
      buf[at + i] +=
          pre[i] * phasor(kTwoPi * cfo * static_cast<double>(i) / 10e6);
    }
    const auto pm = rx.measure_preamble(buf);
    if (pm && std::abs(static_cast<double>(pm->ltf_start) -
                       static_cast<double>(at + 192)) < 6.0) {
      ++found;
      // 128 samples at 4 dB bound the CFO std to ~3 kHz; timing is the
      // hard part, and it locked.
      EXPECT_NEAR(pm->cfo_hz, cfo, 9e3);
    }
  }
  EXPECT_GE(found, 7);
}

TEST(LowSnrFallback, FullReceiveAtLowSnrBpsk) {
  // End-to-end at ~5 dB: BPSK 1/2 should still deliver most frames.
  Rng rng(8);
  const Transmitter tx;
  Workspace ws;
  const Receiver rx(ws);
  ByteVec psdu(100);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const TxFrame frame =
      tx.build_frame(psdu, {Modulation::kBpsk, CodeRate::kHalf});
  const double nvar = mean_power(frame.samples) / from_db(5.0);
  int ok = 0;
  for (int trial = 0; trial < 10; ++trial) {
    cvec buf(500 + frame.samples.size());
    for (auto& v : buf) v = rng.cgaussian(nvar);
    for (std::size_t i = 0; i < frame.samples.size(); ++i) {
      buf[250 + i] += frame.samples[i];
    }
    const RxResult res = rx.receive(buf);
    if (res.ok && res.psdu == psdu) ++ok;
  }
  EXPECT_GE(ok, 6);
}

}  // namespace
}  // namespace jmb::phy
