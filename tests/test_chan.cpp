// Tests for the channel substrate: oscillator model, fading, topology,
// and the sample-level Medium — including an end-to-end packet through the
// medium into the standard receiver.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "chan/fading.h"
#include "chan/medium.h"
#include "chan/oscillator.h"
#include "chan/topology.h"
#include "dsp/fft.h"
#include "dsp/resampler.h"
#include "dsp/stats.h"
#include "phy/receiver.h"
#include "phy/transmitter.h"

namespace jmb::chan {
namespace {

/// Unbiased sample variance of a series of at least two samples.
double variance(const rvec& x) {
  double m = 0.0;
  for (const double v : x) m += v;
  m /= static_cast<double>(x.size());
  double acc = 0.0;
  for (const double v : x) acc += (v - m) * (v - m);
  return acc / static_cast<double>(x.size() - 1);
}

/// The burst x convolved with the channel's taps, every output sample
/// accumulating the taps in order: the reference apply_range cuts from.
cvec convolve(const FadingChannel& ch, const cvec& x) {
  const cvec& taps = ch.taps();
  if (x.empty()) return {};
  cvec out(x.size() + taps.size() - 1, cplx{});
  for (std::size_t l = 0; l < taps.size(); ++l) {
    const cplx h = taps[l];
    if (h == cplx{}) continue;
    for (std::size_t n = 0; n < x.size(); ++n) out[n + l] += h * x[n];
  }
  return out;
}

/// Four-point Catmull-Rom interpolation of x at fractional position pos,
/// neighbours clamped to the burst; silence outside [0, x.size() - 1].
cplx interp_cubic(const cvec& x, double pos) {
  if (x.empty() || !(pos >= 0.0 && pos <= static_cast<double>(x.size() - 1))) {
    return {0.0, 0.0};
  }
  const auto i1 = static_cast<std::ptrdiff_t>(std::floor(pos));
  const double mu = pos - static_cast<double>(i1);
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  const auto at = [&](std::ptrdiff_t i) -> cplx {
    if (i < 0) return x.front();
    if (i >= n) return x.back();
    return x[static_cast<std::size_t>(i)];
  };
  return cubic_segment(at(i1 - 1), at(i1), at(i1 + 1), at(i1 + 2), mu);
}

TEST(Oscillator, CfoFromPpm) {
  Oscillator osc({.ppm = 2.0, .carrier_hz = 2.4e9, .sample_rate_hz = 10e6,
                  .phase_noise_linewidth_hz = 0.0, .seed = 1});
  EXPECT_NEAR(osc.cfo_hz(), 4800.0, 1e-9);
  EXPECT_NEAR(osc.clock_ratio(), 1.000002, 1e-12);
  EXPECT_NEAR(osc.sample_rate_hz(), 10e6 * 1.000002, 1e-3);
}

TEST(Oscillator, RotationWithoutNoiseIsPureCfo) {
  Oscillator osc({.ppm = 1.0, .carrier_hz = 2.4e9, .sample_rate_hz = 10e6,
                  .phase_noise_linewidth_hz = 0.0, .seed = 1});
  // The rotation Medium applies at nominal index n is
  // e^{j(2 pi cfo t + theta(n))}; with no phase noise theta stays 0.
  EXPECT_NEAR(osc.cfo_hz(), 2400.0, 1e-9);
  for (const std::uint64_t n : {0u, 1u, 10000u, 1u << 20}) {
    EXPECT_EQ(osc.phase_noise_at(n), 0.0) << n;
  }
}

TEST(Oscillator, PhaseNoiseIsDeterministic) {
  const OscillatorParams p{.ppm = 0.0, .carrier_hz = 2.4e9,
                           .sample_rate_hz = 10e6,
                           .phase_noise_linewidth_hz = 0.5, .seed = 42};
  Oscillator a(p), b(p);
  // Query in different orders; same values must come back.
  const double v1 = a.phase_noise_at(100000);
  const double v2 = a.phase_noise_at(50000);
  EXPECT_EQ(b.phase_noise_at(50000), v2);
  EXPECT_EQ(b.phase_noise_at(100000), v1);
}

TEST(Oscillator, PhaseNoiseVarianceGrowsLinearly) {
  // Wiener process: Var[theta(n)] = (2 pi B / fs) * n. Check the ensemble
  // across seeds at two horizons.
  const double fs = 10e6, B = 1.0;
  rvec s_short, s_long;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Oscillator osc({.ppm = 0.0, .carrier_hz = 2.4e9, .sample_rate_hz = fs,
                    .phase_noise_linewidth_hz = B, .seed = seed});
    s_short.push_back(osc.phase_noise_at(10000));
    s_long.push_back(osc.phase_noise_at(40000));
  }
  const double expect_short = kTwoPi * B / fs * 10000;
  const double expect_long = kTwoPi * B / fs * 40000;
  EXPECT_NEAR(variance(s_short), expect_short, expect_short * 0.35);
  EXPECT_NEAR(variance(s_long), expect_long, expect_long * 0.35);
}

TEST(Fading, MeanPowerMatchesGain) {
  RunningStats power;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    FadingChannel ch({.gain = 2.5, .n_taps = 4, .tap_decay = 0.5,
                      .rice_k = 0.0, .delay_s = 0.0, .coherence_time_s = 0.25,
                      .sample_rate_hz = 10e6, .seed = seed});
    double p = 0.0;
    for (const cplx& t : ch.taps()) p += std::norm(t);
    power.add(p);
  }
  EXPECT_NEAR(power.mean(), 2.5, 0.25);
}

TEST(Fading, ExponentialProfileDecays) {
  RunningStats t0, t1, t2;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    FadingChannel ch({.gain = 1.0, .n_taps = 3, .tap_decay = 0.4,
                      .rice_k = 0.0, .delay_s = 0.0, .coherence_time_s = 0.25,
                      .sample_rate_hz = 10e6, .seed = seed});
    t0.add(std::norm(ch.taps()[0]));
    t1.add(std::norm(ch.taps()[1]));
    t2.add(std::norm(ch.taps()[2]));
  }
  EXPECT_NEAR(t1.mean() / t0.mean(), 0.4, 0.1);
  EXPECT_NEAR(t2.mean() / t1.mean(), 0.4, 0.15);
}

TEST(Fading, CoherenceTimeDecorrelation) {
  // Jakes model: autocorrelation ~ J0(2 pi f_D dt) with f_D picked so the
  // 50% point lands at the configured coherence time. Short lags must be
  // essentially unchanged (quadratic rolloff) — the property that lets JMB
  // amortize one measurement over the coherence time.
  const double tc = 0.25;
  RunningStats corr_tc, corr_tiny, err_tiny;
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    FadingChannel ch({.gain = 1.0, .n_taps = 1, .tap_decay = 0.5,
                      .rice_k = 0.0, .delay_s = 0.0, .coherence_time_s = tc,
                      .sample_rate_hz = 10e6, .seed = seed});
    const cplx h0 = ch.taps()[0];
    ch.evolve_to(3e-3);  // << Tc: essentially unchanged
    corr_tiny.add((std::conj(h0) * ch.taps()[0]).real() / std::norm(h0));
    err_tiny.add(std::norm(ch.taps()[0] - h0) / std::norm(h0));
    ch.evolve_to(3e-3 + tc);
    corr_tc.add((std::conj(h0) * ch.taps()[0]).real());
  }
  EXPECT_GT(corr_tiny.mean(), 0.999);
  // The 3 ms innovation must be far below -25 dB relative to the tap —
  // Gauss-Markov (linear rolloff) would fail this at ~ -16 dB.
  EXPECT_LT(to_db(err_tiny.mean()), -25.0);
  EXPECT_NEAR(corr_tc.mean(), 0.5, 0.15);
}

TEST(Fading, EvolveBackwardsThrows) {
  FadingChannel ch({.gain = 1.0, .n_taps = 1, .tap_decay = 0.5, .rice_k = 0.0,
                    .delay_s = 0.0, .coherence_time_s = 0.25,
                    .sample_rate_hz = 10e6, .seed = 1});
  ch.evolve_to(1.0);
  EXPECT_THROW(ch.evolve_to(0.5), std::invalid_argument);
}

TEST(Fading, EvolveToNaNThrows) {
  // NaN < t is false, so a plain "backwards" test would let NaN through
  // and silently turn every tap into NaN.
  FadingChannel ch({.gain = 1.0, .n_taps = 2, .tap_decay = 0.5, .rice_k = 0.0,
                    .delay_s = 0.0, .coherence_time_s = 0.25,
                    .sample_rate_hz = 10e6, .seed = 1});
  const cvec before = ch.taps();
  EXPECT_THROW(ch.evolve_to(std::nan("")), std::invalid_argument);
  EXPECT_EQ(ch.taps(), before);
  ch.evolve_to(1e-3);
  for (const cplx& h : ch.taps()) EXPECT_TRUE(std::isfinite(std::abs(h)));
}

TEST(Fading, RicianKConcentratesFirstTap) {
  RunningStats mag;
  rvec mags;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    FadingChannel ch({.gain = 1.0, .n_taps = 1, .tap_decay = 1.0,
                      .rice_k = 20.0, .delay_s = 0.0, .coherence_time_s = 0.25,
                      .sample_rate_hz = 10e6, .seed = seed});
    mag.add(std::abs(ch.taps()[0]));
    mags.push_back(std::abs(ch.taps()[0]));
  }
  // Strong LOS: magnitude tightly clustered near 1.
  EXPECT_NEAR(mag.mean(), 1.0, 0.05);
  EXPECT_LT(std::sqrt(variance(mags)), 0.2);
}

TEST(Fading, ApplyIsLinearConvolution) {
  FadingChannel ch({.gain = 1.0, .n_taps = 3, .tap_decay = 0.5, .rice_k = 0.0,
                    .delay_s = 0.0, .coherence_time_s = 0.25,
                    .sample_rate_hz = 10e6, .seed = 7});
  const cvec x{cplx{1, 0}, cplx{0, 1}};
  cvec y(4);
  ch.apply_range(x, 0, 4, y);
  const auto& h = ch.taps();
  EXPECT_NEAR(std::abs(y[0] - h[0] * x[0]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(y[1] - (h[1] * x[0] + h[0] * x[1])), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(y[3] - h[2] * x[1]), 0.0, 1e-12);
}

TEST(FadingChannel, ApplyRangeMatchesApply) {
  // Every range [k0, k1) of the output, including empty ones and ones
  // touching either edge, for 1-6 taps and for an all-zero delay line
  // (gain 0: every tap is skipped).
  Rng rng(21);
  const cvec x = rng.cgaussian_vec(9, 1.0);
  for (std::size_t taps = 0; taps <= 6; ++taps) {
    const FadingChannel ch({.gain = taps == 0 ? 0.0 : 1.0,
                            .n_taps = std::max<std::size_t>(taps, 3),
                            .tap_decay = 0.5, .rice_k = 0.0, .delay_s = 0.0,
                            .coherence_time_s = 0.25, .sample_rate_hz = 10e6,
                            .seed = 30 + taps});
    const cvec full = convolve(ch, x);
    ASSERT_EQ(full.size(), x.size() + ch.taps().size() - 1);
    for (std::size_t k0 = 0; k0 <= full.size(); ++k0) {
      for (std::size_t k1 = k0; k1 <= full.size(); ++k1) {
        cvec part(k1 - k0 + 1, cplx{7.0, 7.0});
        ch.apply_range(x, k0, k1, part);
        EXPECT_EQ(std::memcmp(part.data(), full.data() + k0,
                              (k1 - k0) * sizeof(cplx)),
                  0)
            << taps << " taps, [" << k0 << ", " << k1 << ")";
        // Nothing past k1 - k0 is written.
        EXPECT_EQ(part.back(), (cplx{7.0, 7.0}));
      }
    }
  }
}

TEST(Topology, PlacementRespectsRoom) {
  Rng rng(1);
  const Topology t = sample_topology(10, 10, rng);
  EXPECT_EQ(t.aps.size(), 10u);
  EXPECT_EQ(t.clients.size(), 10u);
  ASSERT_EQ(t.links.size(), 10u);
  for (const auto& row : t.links) EXPECT_EQ(row.size(), 10u);
  for (const Position& p : t.aps) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, kRoomWidthM);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, kRoomHeightM);
    // On a ledge: within 0.5 m of some wall.
    const double wall = std::min(std::min(p.x, kRoomWidthM - p.x),
                                 std::min(p.y, kRoomHeightM - p.y));
    EXPECT_LE(wall, 0.5);
  }
}

TEST(Topology, CloserIsStrongerOnAverage) {
  Rng rng(2);
  RunningStats near_snr, far_snr;
  for (int trial = 0; trial < 60; ++trial) {
    const Topology t = sample_topology(4, 4, rng);
    for (std::size_t c = 0; c < t.clients.size(); ++c) {
      for (std::size_t a = 0; a < t.aps.size(); ++a) {
        (t.links[c][a].distance_m < 5.0 ? near_snr : far_snr)
            .add(t.links[c][a].snr_db);
      }
    }
  }
  EXPECT_GT(near_snr.mean(), far_snr.mean() + 3.0);
}

TEST(Topology, BandSamplerHitsBand) {
  Rng rng(3);
  for (const auto& [lo, hi] :
       {std::pair{6.0, 12.0}, {12.0, 18.0}, {18.0, 30.0}}) {
    const Topology t = sample_topology_in_band(6, 6, rng, lo, hi);
    for (std::size_t c = 0; c < t.clients.size(); ++c) {
      double best = -1e18;
      for (const Link& l : t.links[c]) best = std::max(best, l.snr_db);
      EXPECT_GE(best, lo - 1e-9);
      EXPECT_LE(best, hi + 1e-9);
    }
  }
}

TEST(Medium, SingleLinkSnrMatchesBudget) {
  MediumParams mp;
  Medium medium(mp);
  const NodeId tx = medium.add_node({.ppm = 0.0, .carrier_hz = 2.4e9,
                                     .sample_rate_hz = 10e6,
                                     .phase_noise_linewidth_hz = 0.0,
                                     .seed = 1},
                                    /*noise_var=*/1e-3);
  const NodeId rx = medium.add_node({.ppm = 0.0, .carrier_hz = 2.4e9,
                                     .sample_rate_hz = 10e6,
                                     .phase_noise_linewidth_hz = 0.0,
                                     .seed = 2},
                                    1e-3);
  medium.set_link(tx, rx, {.gain = 1.0, .n_taps = 1, .tap_decay = 1.0,
                           .rice_k = 100.0, .delay_s = 0.0,
                           .coherence_time_s = 0.25, .sample_rate_hz = 10e6,
                           .seed = 3});
  Rng rng(4);
  const cvec burst = rng.cgaussian_vec(5000, 1.0);  // unit power
  medium.transmit(tx, 0.0, burst);
  const cvec heard = medium.receive(rx, 0.0, 5000);
  // SNR = gain * power / noise_var = 1 / 1e-3 = 30 dB.
  const double p = mean_power(heard);
  EXPECT_NEAR(to_db((p - 1e-3) / 1e-3), 30.0, 1.0);
}

TEST(MetroGeometry, GridPlacementIsRowMajor) {
  const CellGridParams g{.cols = 3, .pitch_m = 30.0};
  EXPECT_DOUBLE_EQ(cell_center(0, g).x, 0.0);
  EXPECT_DOUBLE_EQ(cell_center(0, g).y, 0.0);
  EXPECT_DOUBLE_EQ(cell_center(4, g).x, 30.0);  // (4 % 3, 4 / 3) = (1, 1)
  EXPECT_DOUBLE_EQ(cell_center(4, g).y, 30.0);
  EXPECT_DOUBLE_EQ(cell_distance_m(0, 1, g), 30.0);
  EXPECT_DOUBLE_EQ(cell_distance_m(0, 4, g), 30.0 * std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(cell_distance_m(2, 5, g), cell_distance_m(5, 2, g));
}

TEST(MetroGeometry, LeakageGainIsMonotoneInDistance) {
  // Clamped below the reference distance; strictly decreasing beyond it.
  EXPECT_DOUBLE_EQ(inter_cell_leakage_gain(0.0),
                   inter_cell_leakage_gain(kInterCellRefDistanceM));
  double prev = inter_cell_leakage_gain(kInterCellRefDistanceM);
  EXPECT_GT(prev, 0.0);
  for (double d = kInterCellRefDistanceM * 1.5; d < 400.0; d *= 1.5) {
    const double g = inter_cell_leakage_gain(d);
    EXPECT_LT(g, prev) << "at d=" << d;
    prev = g;
  }
}

TEST(MetroGeometry, InterferenceIsSymmetricForACellPair) {
  // Two cells, saturated duty: the fade is drawn from the unordered pair,
  // so each side sees the identical per-subcarrier profile no matter
  // which shard computes first.
  const CellGridParams grid{.cols = 2, .pitch_m = 30.0};
  const auto at0 = inter_cell_interference(0, 2, grid, 48, 1234);
  const auto at1 = inter_cell_interference(1, 2, grid, 48, 1234);
  ASSERT_EQ(at0.size(), 48u);
  double total = 0.0;
  for (std::size_t k = 0; k < at0.size(); ++k) {
    EXPECT_DOUBLE_EQ(at0[k], at1[k]);
    total += at0[k];
  }
  EXPECT_GT(total, 0.0);
  // And regenerating the same shard's view is bit-stable.
  const auto again = inter_cell_interference(0, 2, grid, 48, 1234);
  EXPECT_EQ(at0, again);
  // A different trial seed redraws the fades.
  const auto other = inter_cell_interference(0, 2, grid, 48, 1235);
  EXPECT_NE(at0, other);
}

TEST(MetroGeometry, SingleCellGridHasNoInterference) {
  // Single-cell grids have no neighbors, so nothing leaks in.
  const CellGridParams grid{.cols = 3, .pitch_m = 30.0};
  const auto lone = inter_cell_interference(0, 1, grid, 48, 77);
  for (const double v : lone) EXPECT_EQ(v, 0.0);
}

TEST(Medium, HalfDuplexAndMissingLinksAreSilent) {
  Medium medium({});
  const NodeId a = medium.add_node({.ppm = 0.0, .carrier_hz = 2.4e9,
                                    .sample_rate_hz = 10e6,
                                    .phase_noise_linewidth_hz = 0.0, .seed = 1},
                                   1e-6);
  const NodeId b = medium.add_node({.ppm = 0.0, .carrier_hz = 2.4e9,
                                    .sample_rate_hz = 10e6,
                                    .phase_noise_linewidth_hz = 0.0, .seed = 2},
                                   1e-6);
  Rng rng(5);
  medium.transmit(a, 0.0, rng.cgaussian_vec(1000, 1.0));
  // a doesn't hear itself; b has no link from a.
  EXPECT_NEAR(mean_power(medium.receive(a, 0.0, 1000)), 1e-6, 5e-7);
  EXPECT_NEAR(mean_power(medium.receive(b, 0.0, 1000)), 1e-6, 5e-7);
}

TEST(Medium, CfoAppearsAsExpectedRotation) {
  Medium medium({});
  // tx at +2 ppm, rx at -1 ppm: relative CFO = 3e-6 * 2.4 GHz = 7.2 kHz.
  const NodeId tx = medium.add_node({.ppm = 2.0, .carrier_hz = 2.4e9,
                                     .sample_rate_hz = 10e6,
                                     .phase_noise_linewidth_hz = 0.0,
                                     .seed = 1},
                                    1e-12);
  const NodeId rx = medium.add_node({.ppm = -1.0, .carrier_hz = 2.4e9,
                                     .sample_rate_hz = 10e6,
                                     .phase_noise_linewidth_hz = 0.0,
                                     .seed = 2},
                                    1e-12);
  medium.set_link(tx, rx, {.gain = 1.0, .n_taps = 1, .tap_decay = 1.0,
                           .rice_k = 1e9, .delay_s = 0.0,
                           .coherence_time_s = 0.25, .sample_rate_hz = 10e6,
                           .seed = 3});
  const cvec ones(4000, cplx{1.0, 0.0});
  medium.transmit(tx, 0.0, ones);
  const cvec heard = medium.receive(rx, 0.0, 4000);
  // Measure the rotation rate over the middle of the burst.
  cplx acc{};
  for (std::size_t n = 1000; n < 3000; ++n) {
    acc += std::conj(heard[n]) * heard[n + 1];
  }
  const double f = std::arg(acc) * 10e6 / kTwoPi;
  EXPECT_NEAR(f, 7200.0, 50.0);
}

TEST(Medium, NonFiniteTimesThrow) {
  Medium medium({});
  const NodeId a = medium.add_node({.ppm = 1.0, .carrier_hz = 2.4e9,
                                    .sample_rate_hz = 10e6,
                                    .phase_noise_linewidth_hz = 0.1, .seed = 1},
                                   1e-6);
  const NodeId b = medium.add_node({.ppm = -1.0, .carrier_hz = 2.4e9,
                                    .sample_rate_hz = 10e6,
                                    .phase_noise_linewidth_hz = 0.1, .seed = 2},
                                   1e-6);
  medium.set_link(a, b, {.gain = 1.0, .n_taps = 2, .tap_decay = 0.5,
                         .rice_k = 0.0, .delay_s = 20e-9,
                         .coherence_time_s = 0.25, .sample_rate_hz = 10e6,
                         .seed = 3});
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const cvec burst(200, cplx{1.0, 0.0});
  EXPECT_THROW(medium.transmit(a, nan, burst), std::invalid_argument);
  EXPECT_THROW(medium.transmit(a, inf, burst), std::invalid_argument);
  EXPECT_THROW((void)medium.receive(b, nan, 100), std::invalid_argument);
  EXPECT_THROW((void)medium.receive(b, -inf, 100), std::invalid_argument);
  EXPECT_THROW(medium.evolve_links_to(nan), std::invalid_argument);
  EXPECT_THROW(medium.evolve_links_to(inf), std::invalid_argument);
  // The rejected calls scheduled nothing and moved no link.
  EXPECT_NEAR(mean_power(medium.receive(b, 0.0, 400)), 1e-6, 5e-7);
  medium.evolve_links_to(1e-3);
  medium.transmit(a, 1e-3, burst);
  EXPECT_GT(mean_power(medium.receive(b, 1e-3, 200)), 0.01);
}

/// The message of the std::invalid_argument `f` throws ("" if none).
template <class F>
std::string invalid_argument_message(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

OscillatorParams quiet_osc(std::uint64_t seed) {
  return {.ppm = 0.0, .carrier_hz = 2.4e9, .sample_rate_hz = 10e6,
          .phase_noise_linewidth_hz = 0.0, .seed = seed};
}

TEST(Medium, AddNodeRejectsBadNoiseVar) {
  Medium medium({});
  for (const double v : {std::nan(""), std::numeric_limits<double>::infinity(),
                         -1e-3}) {
    const std::string what = invalid_argument_message(
        [&] { (void)medium.add_node(quiet_osc(1), v); });
    EXPECT_NE(what.find("noise_var"), std::string::npos) << v << ": " << what;
  }
  EXPECT_EQ(medium.n_nodes(), 0u);
  // Zero is a valid (noiseless) floor.
  EXPECT_EQ(medium.add_node(quiet_osc(1), 0.0), 0u);
}

TEST(Medium, SetNoiseVarRejectsBadNoiseVar) {
  Medium medium({});
  const NodeId rx = medium.add_node(quiet_osc(1), 1e-3);
  for (const double v : {std::nan(""), -std::numeric_limits<double>::infinity(),
                         -2.0}) {
    const std::string what =
        invalid_argument_message([&] { medium.set_noise_var(rx, v); });
    EXPECT_NE(what.find("noise_var"), std::string::npos) << v << ": " << what;
  }
  // The floor is still 1e-3: the same draws as a medium that never saw
  // the bad values.
  Medium twin({});
  const NodeId twin_rx = twin.add_node(quiet_osc(1), 1e-3);
  const cvec got = medium.receive(rx, 0.0, 64);
  const cvec want = twin.receive(twin_rx, 0.0, 64);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), 64 * sizeof(cplx)), 0);
}

TEST(Medium, EndToEndPacketThroughMediumDecodes) {
  // A real 802.11 frame from a +1.5 ppm AP to a -1.2 ppm client across a
  // fading link at ~25 dB SNR, with phase noise — the standard receiver
  // must decode it.
  Medium medium({});
  const NodeId ap = medium.add_node({.ppm = 1.5, .carrier_hz = 2.4e9,
                                     .sample_rate_hz = 10e6,
                                     .phase_noise_linewidth_hz = 0.1,
                                     .seed = 11},
                                    1e-12);
  const double noise = 1e-3;
  const NodeId client = medium.add_node({.ppm = -1.2, .carrier_hz = 2.4e9,
                                         .sample_rate_hz = 10e6,
                                         .phase_noise_linewidth_hz = 0.1,
                                         .seed = 12},
                                        noise);

  const phy::PhyConfig cfg;
  const phy::Transmitter tx(cfg);
  const phy::Receiver rx(cfg);
  Rng rng(14);
  phy::ByteVec psdu(500);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const phy::TxFrame frame =
      tx.build_frame(psdu, {phy::Modulation::kQam16, phy::CodeRate::kHalf});

  // Gain such that mean received signal power sits 25 dB above the noise.
  const double gain = noise * from_db(25.0) / mean_power(frame.samples);
  medium.set_link(ap, client,
                  {.gain = gain, .n_taps = 3, .tap_decay = 0.4,
                   .rice_k = 5.0, .delay_s = 40e-9, .coherence_time_s = 0.25,
                   .sample_rate_hz = 10e6, .seed = 13});

  medium.transmit(ap, 100e-6, frame.samples);
  const cvec heard = medium.receive(client, 0.0, 4000 + frame.samples.size());
  const phy::RxResult res = rx.receive(heard);
  ASSERT_TRUE(res.ok) << res.fail_reason;
  EXPECT_EQ(res.psdu, psdu);
  // CFO estimate should land near 2.7 ppm * 2.4 GHz = 6.48 kHz.
  EXPECT_NEAR(res.preamble.cfo_hz, 6480.0, 300.0);
  EXPECT_NEAR(res.preamble.snr_db, 25.0, 6.0);
}

// ---------------------------------------------------------------------------
// Parity: Medium::receive walks each oscillator's phase noise once per
// receive window. It must reproduce, bit for bit, the per-sample loop it
// replaced, which queried both oscillators at every in-burst sample.

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

OscillatorParams noisy_osc(std::uint64_t seed) {
  return {.ppm = 0.0, .carrier_hz = 2.4e9, .sample_rate_hz = 10e6,
          .phase_noise_linewidth_hz = 50.0, .seed = seed};
}

/// theta(first .. first + len - 1) from a fresh oscillator queried in
/// increasing order: every query continues the previous one, so this is
/// the plain left fold of the increments.
std::vector<double> folded(const OscillatorParams& p, std::uint64_t first,
                           std::size_t len) {
  const Oscillator osc(p);
  std::vector<double> out(len);
  for (std::size_t i = 0; i < len; ++i) out[i] = osc.phase_noise_at(first + i);
  return out;
}

TEST(OscillatorParity, RunMatchesPointQueriesAcrossCheckpoints) {
  const OscillatorParams p = noisy_osc(7);
  const Oscillator osc(p);
  // Runs that straddle multiples of 1024 and of 16384, in increasing order.
  for (std::uint64_t k = 1; k <= 3; ++k) {
    const std::uint64_t first = k * 16384 - 300;
    std::vector<double> run(2500);
    osc.phase_noise_run(first, run);
    EXPECT_TRUE(same_bits(run, folded(p, first, run.size()))) << first;
  }
}

TEST(OscillatorParity, RunPlacedBeforeAnEarlierQuery) {
  const OscillatorParams p = noisy_osc(8);
  const Oscillator osc(p);
  (void)osc.phase_noise_at(70000);
  std::vector<double> run(3000);
  osc.phase_noise_run(20000, run);
  EXPECT_TRUE(same_bits(run, folded(p, 20000, run.size())));
  // A point query inside the run, below the next checkpoint (20480),
  // restarts from the run's first index.
  const double mid = osc.phase_noise_at(20400);
  EXPECT_TRUE(same_bits({&mid, 1}, {&run[400], 1}));
  const double before = osc.phase_noise_at(19999);
  const std::vector<double> ref = folded(p, 19999, 1);
  EXPECT_TRUE(same_bits({&before, 1}, ref));
}

TEST(OscillatorParity, RunFromIndexZero) {
  const OscillatorParams p = noisy_osc(9);
  const Oscillator osc(p);
  std::vector<double> run(1500);
  osc.phase_noise_run(0, run);
  EXPECT_EQ(run[0], 0.0);
  EXPECT_TRUE(same_bits(run, folded(p, 0, run.size())));
}

TEST(OscillatorParity, ZeroLinewidthRunIsAllZero) {
  OscillatorParams p = noisy_osc(10);
  p.phase_noise_linewidth_hz = 0.0;
  const Oscillator osc(p);
  std::vector<double> run(500, 1.0);
  osc.phase_noise_run(123456, run);
  EXPECT_TRUE(same_bits(run, std::vector<double>(run.size(), 0.0)));
  EXPECT_EQ(osc.phase_noise_at(123456), 0.0);
}

TEST(OscillatorParity, BlockWalkMatchesPointQueries) {
  // A walk cut into consecutive fixed-size runs, as Medium::receive does
  // for transmitters. Later passes (the next receivers of the window)
  // start a sample after, before, and at the first pass's start, so they
  // restart from the run start as well as from a checkpoint.
  const OscillatorParams p = noisy_osc(11);
  const Oscillator osc(p);
  const std::uint64_t first = 3 * 16384 - 1000;
  const std::uint64_t end = first + 4096;
  const std::vector<double> ref = folded(p, first - 1, end - first + 1);
  for (const std::uint64_t start : {first, first + 1, first - 1, first}) {
    std::vector<double> walk;
    std::array<double, 256> block{};
    for (std::uint64_t b = start; b < end; b += block.size()) {
      osc.phase_noise_run(b, block);
      walk.insert(walk.end(), block.begin(), block.end());
    }
    walk.resize(end - start);
    EXPECT_TRUE(same_bits(walk, std::span(ref).subspan(start - (first - 1))))
        << start - first;
  }
}

struct Burst {
  NodeId tx = 0;
  double start_s = 0.0;
  cvec samples;
};

/// The receive loop as it stood before the shared walks: both
/// oscillators' phase_noise_at at every in-burst sample. `y` holds what
/// the receiver hears with nothing on the air; `oscs` are fresh
/// oscillators with the medium's parameters, so no cache is shared.
cvec reference_receive(Medium& medium,
                       const std::vector<Oscillator>& oscs,
                       const std::vector<Burst>& bursts, NodeId rx,
                       double start_s, cvec y) {
  const std::size_t n = y.size();
  const double fs = medium.sample_rate_hz();
  const Oscillator& rxo = oscs[rx];
  const double fs_rx = rxo.sample_rate_hz();
  for (const Burst& t : bursts) {
    if (t.tx == rx) continue;
    const FadingChannel* ch = medium.link(t.tx, rx);
    if (ch == nullptr) continue;
    const Oscillator& txo = oscs[t.tx];
    const double fs_tx = txo.sample_rate_hz();
    const double delta_cfo = txo.cfo_hz() - rxo.cfo_hz();
    const cvec conv = convolve(*ch, t.samples);
    const double delay_s = ch->delay_samples() / fs;
    const double t0 = t.start_s + delay_s;
    const double burst_end = t0 + static_cast<double>(conv.size()) / fs_tx;
    const double win_start = start_s;
    const double win_end = start_s + static_cast<double>(n) / fs_rx;
    if (burst_end < win_start || t0 > win_end) continue;
    for (std::size_t m = 0; m < n; ++m) {
      const double tm = start_s + static_cast<double>(m) / fs_rx;
      const double pos = (tm - t0) * fs_tx;
      if (pos < 0.0 || pos > static_cast<double>(conv.size() - 1)) continue;
      const cplx s = interp_cubic(conv, pos);
      if (s == cplx{}) continue;
      const double det = kTwoPi * delta_cfo * tm;
      const auto idx = static_cast<std::uint64_t>(std::max(0.0, tm * fs));
      const double pn = txo.phase_noise_at(idx) - rxo.phase_noise_at(idx);
      y[m] += s * phasor(det + pn);
    }
  }
  return y;
}

/// A medium under test plus a twin with the same nodes and noise seed but
/// nothing on the air, which supplies the reference's noise floor.
class ParityRig {
 public:
  NodeId add_node(double ppm, double linewidth_hz = 20.0) {
    const OscillatorParams p{.ppm = ppm, .carrier_hz = 2.4e9,
                             .sample_rate_hz = 10e6,
                             .phase_noise_linewidth_hz = linewidth_hz,
                             .seed = 100 + medium_.n_nodes()};
    params_.push_back(p);
    (void)twin_.add_node(p, 1e-4);
    return medium_.add_node(p, 1e-4);
  }
  void set_link(NodeId tx, NodeId rx, std::size_t taps, double delay_s) {
    medium_.set_link(tx, rx, {.gain = 1.0, .n_taps = taps, .tap_decay = 0.6,
                              .rice_k = 1.0, .delay_s = delay_s,
                              .coherence_time_s = 0.25, .sample_rate_hz = 10e6,
                              .seed = 1000 + 16 * tx + rx});
  }
  void transmit(NodeId tx, double start_s, std::size_t len) {
    Rng rng(5000 + bursts_.size());
    cvec s = rng.cgaussian_vec(len, 1.0);
    bursts_.push_back({tx, start_s, s});
    medium_.transmit(tx, start_s, std::move(s));
  }
  /// receive() against the reference loop over the same window.
  ::testing::AssertionResult matches(NodeId rx, double start_s,
                                     std::size_t n) {
    const std::vector<Oscillator> oscs(params_.begin(), params_.end());
    const cvec ref = reference_receive(medium_, oscs, bursts_, rx, start_s,
                                       twin_.receive(rx, start_s, n));
    const cvec got = medium_.receive(rx, start_s, n);
    for (std::size_t m = 0; m < n; ++m) {
      if (std::memcmp(&got[m], &ref[m], sizeof(cplx)) != 0) {
        return ::testing::AssertionFailure()
               << "rx " << rx << " sample " << m << ": " << got[m]
               << " != " << ref[m];
      }
    }
    return ::testing::AssertionSuccess();
  }
  /// receive_into() over `rxs` against the reference loop per receiver,
  /// then one more receive() of `next`: it matches only if the joint call
  /// left the noise stream where consecutive receive() calls leave it.
  ::testing::AssertionResult joint_matches(const std::vector<NodeId>& rxs,
                                           double start_s, std::size_t n,
                                           NodeId next) {
    const std::vector<Oscillator> oscs(params_.begin(), params_.end());
    std::vector<cvec> ref;
    for (const NodeId rx : rxs) {
      ref.push_back(reference_receive(medium_, oscs, bursts_, rx, start_s,
                                      twin_.receive(rx, start_s, n)));
    }
    // Stale contents and sizes must not leak into the result.
    std::vector<cvec> got(rxs.size(), cvec(n / 2 + 3, cplx{5.0, 5.0}));
    medium_.receive_into(rxs, start_s, n, got);
    for (std::size_t r = 0; r < rxs.size(); ++r) {
      if (got[r].size() != n) {
        return ::testing::AssertionFailure()
               << "entry " << r << " has " << got[r].size() << " samples";
      }
      for (std::size_t m = 0; m < n; ++m) {
        if (std::memcmp(&got[r][m], &ref[r][m], sizeof(cplx)) != 0) {
          return ::testing::AssertionFailure()
                 << "entry " << r << " (rx " << rxs[r] << ") sample " << m
                 << ": " << got[r][m] << " != " << ref[r][m];
        }
      }
    }
    return matches(next, start_s, std::max<std::size_t>(n, 64));
  }
  Medium& medium() { return medium_; }

 private:
  Medium medium_{{}, 77};
  Medium twin_{{}, 77};
  std::vector<OscillatorParams> params_;
  std::vector<Burst> bursts_;
};

constexpr double kFs = 10e6;
/// Window start a little below index 2 * 16384, so windows cross stride
/// multiples of the old and the new checkpoint grid.
constexpr double kWin = 32000.0 / kFs;

TEST(MediumParity, OneToFourTransmittersWithSfoCfoAndMultipath) {
  const std::array<double, 4> tx_ppm{20.0, -20.0, 13.7, -7.3};
  for (std::size_t n_tx = 1; n_tx <= 4; ++n_tx) {
    for (std::size_t taps = 1; taps <= 6; ++taps) {
      ParityRig rig;
      std::vector<NodeId> txs;
      for (std::size_t k = 0; k < n_tx; ++k) {
        txs.push_back(rig.add_node(tx_ppm[k]));
      }
      const NodeId fast = rig.add_node(20.0);
      const NodeId slow = rig.add_node(-20.0);
      for (std::size_t k = 0; k < n_tx; ++k) {
        const double delay = 37e-9 * static_cast<double>(k + 1);
        rig.set_link(txs[k], fast, taps, delay);
        rig.set_link(txs[k], slow, 7 - taps, delay + 13e-9);
        rig.transmit(txs[k], kWin + (40.0 + 17.0 * k) / kFs, 1800 + 50 * k);
      }
      EXPECT_TRUE(rig.matches(fast, kWin, 2600)) << n_tx << "x" << taps;
      EXPECT_TRUE(rig.matches(slow, kWin, 2600)) << n_tx << "x" << taps;
    }
  }
}

TEST(MediumParity, BurstsClippingEitherWindowEdge) {
  ParityRig rig;
  const NodeId a = rig.add_node(11.0);
  const NodeId b = rig.add_node(-9.0);
  const NodeId rx = rig.add_node(4.0);
  rig.set_link(a, rx, 3, 55e-9);
  rig.set_link(b, rx, 4, 12e-9);
  rig.transmit(a, kWin - 700.0 / kFs, 1500);   // clips the window start
  rig.transmit(b, kWin + 1200.0 / kFs, 1500);  // runs past the window end
  EXPECT_TRUE(rig.matches(rx, kWin, 2000));
}

TEST(MediumParity, WindowStartingBeforeTimeZeroClampsTheIndex) {
  ParityRig rig;
  const NodeId tx = rig.add_node(-15.0);
  const NodeId rx = rig.add_node(18.0);
  rig.set_link(tx, rx, 2, 31e-9);
  rig.transmit(tx, -300.0 / kFs, 900);
  EXPECT_TRUE(rig.matches(rx, -500.0 / kFs, 1500));
}

TEST(MediumParity, ZeroLinewidthNodesAndAMissingLink) {
  ParityRig rig;
  const NodeId quiet_tx = rig.add_node(9.0, 0.0);
  const NodeId unlinked = rig.add_node(-3.0);
  const NodeId noisy_tx = rig.add_node(-12.0);
  const NodeId rx = rig.add_node(2.0);
  const NodeId quiet_rx = rig.add_node(-2.0, 0.0);
  for (const NodeId r : {rx, quiet_rx}) {
    rig.set_link(quiet_tx, r, 2, 40e-9);
    rig.set_link(noisy_tx, r, 3, 15e-9);
  }
  rig.transmit(quiet_tx, kWin + 50.0 / kFs, 1000);
  rig.transmit(unlinked, kWin + 60.0 / kFs, 1000);
  rig.transmit(noisy_tx, kWin + 70.0 / kFs, 1000);
  EXPECT_TRUE(rig.matches(rx, kWin, 1300));
  EXPECT_TRUE(rig.matches(quiet_rx, kWin, 1300));
}

TEST(MediumParity, FourReceiversReadTheSameWindow) {
  // The joint-frame shape: the lead sends a header and a data burst, the
  // others a data burst each, and every client reads the whole window.
  ParityRig rig;
  const std::array<double, 4> ap_ppm{3.0, -17.0, 19.5, -8.0};
  const std::array<double, 4> client_ppm{-19.0, 20.0, 0.5, -4.0};
  std::vector<NodeId> aps, clients;
  for (const double ppm : ap_ppm) aps.push_back(rig.add_node(ppm));
  for (const double ppm : client_ppm) clients.push_back(rig.add_node(ppm));
  for (std::size_t a = 0; a < aps.size(); ++a) {
    for (std::size_t c = 0; c < clients.size(); ++c) {
      rig.set_link(aps[a], clients[c], 1 + (a + c) % 6,
                   (10.0 + 7.0 * double(a) + 3.0 * double(c)) * 1e-9);
    }
  }
  rig.transmit(aps[0], kWin + 100.0 / kFs, 320);
  for (std::size_t a = 0; a < aps.size(); ++a) {
    rig.transmit(aps[a], kWin + (1900.0 + 0.3 * double(a)) / kFs, 2400);
  }
  for (const NodeId c : clients) EXPECT_TRUE(rig.matches(c, kWin, 4700));
}

TEST(MediumParity, ReceiveEarlierThanThePreviousOne) {
  ParityRig rig;
  const NodeId a = rig.add_node(14.0);
  const NodeId b = rig.add_node(-11.0);
  const NodeId rx1 = rig.add_node(7.0);
  const NodeId rx2 = rig.add_node(-19.0);
  for (const NodeId r : {rx1, rx2}) {
    rig.set_link(a, r, 2, 22e-9);
    rig.set_link(b, r, 5, 48e-9);
  }
  // b's bursts are listed out of time order, so its walk restarts lower.
  rig.transmit(a, kWin, 6000);
  rig.transmit(b, kWin + 4000.0 / kFs, 1500);
  rig.transmit(b, kWin + 500.0 / kFs, 1500);
  EXPECT_TRUE(rig.matches(rx1, kWin + 3000.0 / kFs, 2500));
  EXPECT_TRUE(rig.matches(rx1, kWin, 2500));
  EXPECT_TRUE(rig.matches(rx2, kWin + 1000.0 / kFs, 2500));
  EXPECT_TRUE(rig.matches(rx2, kWin - 200.0 / kFs, 7000));
}

/// The joint-frame rig of FourReceiversReadTheSameWindow: 4 APs, the
/// lead's header plus a data burst per AP, and 4 clients.
struct JointFrame {
  ParityRig rig;
  std::vector<NodeId> aps, clients;

  JointFrame() {
    const std::array<double, 4> ap_ppm{3.0, -17.0, 19.5, -8.0};
    const std::array<double, 4> client_ppm{-19.0, 20.0, 0.5, -4.0};
    for (const double ppm : ap_ppm) aps.push_back(rig.add_node(ppm));
    for (const double ppm : client_ppm) clients.push_back(rig.add_node(ppm));
    for (std::size_t a = 0; a < aps.size(); ++a) {
      for (std::size_t c = 0; c < clients.size(); ++c) {
        rig.set_link(aps[a], clients[c], 1 + (a + c) % 6,
                     (10.0 + 7.0 * double(a) + 3.0 * double(c)) * 1e-9);
      }
    }
    // The lead reaches the slaves too, as the sync header does.
    for (std::size_t a = 1; a < aps.size(); ++a) {
      rig.set_link(aps[0], aps[a], 2, (5.0 + 4.0 * double(a)) * 1e-9);
    }
    rig.transmit(aps[0], kWin + 100.0 / kFs, 320);
    for (std::size_t a = 0; a < aps.size(); ++a) {
      rig.transmit(aps[a], kWin + (1900.0 + 0.3 * double(a)) / kFs, 2400);
    }
  }
};

TEST(MediumParity, JointWindowMatchesConsecutiveReceives) {
  JointFrame f;
  EXPECT_TRUE(f.rig.joint_matches(f.clients, kWin, 4700, f.clients[2]));
  // A second frame's worth: the same window again, clients reversed.
  const std::vector<NodeId> rev(f.clients.rbegin(), f.clients.rend());
  EXPECT_TRUE(f.rig.joint_matches(rev, kWin, 4700, f.clients[0]));
}

TEST(MediumParity, JointWindowWithAReceiverThatAlsoTransmits) {
  // The slaves hear the lead's header while sending their own bursts:
  // each skips its own transmissions but not the lead's.
  JointFrame f;
  const std::vector<NodeId> rxs{f.aps[1], f.clients[0], f.aps[3], f.aps[0]};
  EXPECT_TRUE(f.rig.joint_matches(rxs, kWin, 4700, f.aps[2]));
}

TEST(MediumParity, JointWindowWithDuplicateIds) {
  JointFrame f;
  const std::vector<NodeId> rxs{f.clients[1], f.clients[1], f.clients[3],
                                f.clients[1]};
  EXPECT_TRUE(f.rig.joint_matches(rxs, kWin, 4700, f.clients[1]));
}

TEST(MediumParity, JointWindowWithClippedAndOutOfOrderBursts) {
  ParityRig rig;
  const NodeId a = rig.add_node(11.0);
  const NodeId b = rig.add_node(-9.0);
  const NodeId rx1 = rig.add_node(4.0);
  const NodeId rx2 = rig.add_node(-18.5);
  for (const NodeId r : {rx1, rx2}) {
    rig.set_link(a, r, 3, 55e-9);
    rig.set_link(b, r, 4, 12e-9);
  }
  rig.transmit(b, kWin + 1200.0 / kFs, 1500);  // runs past the window end
  rig.transmit(a, kWin - 700.0 / kFs, 1500);   // clips the window start
  rig.transmit(b, kWin + 300.0 / kFs, 400);    // listed after a later one
  rig.transmit(a, kWin + 5000.0 / kFs, 500);   // after the window
  rig.transmit(b, kWin - 3000.0 / kFs, 500);   // before the window
  EXPECT_TRUE(rig.joint_matches({rx1, rx2}, kWin, 2000, rx1));
  // A window that starts before time zero clamps the phase-noise index.
  EXPECT_TRUE(rig.joint_matches({rx2, rx1}, -600.0 / kFs, 900, rx2));
}

TEST(MediumParity, JointWindowWithZeroLinewidthNodes) {
  ParityRig rig;
  const NodeId quiet_tx = rig.add_node(9.0, 0.0);
  const NodeId noisy_tx = rig.add_node(-12.0);
  const NodeId rx = rig.add_node(2.0);
  const NodeId quiet_rx = rig.add_node(-2.0, 0.0);
  const NodeId unlinked_rx = rig.add_node(7.0);
  for (const NodeId r : {rx, quiet_rx}) {
    rig.set_link(quiet_tx, r, 2, 40e-9);
    rig.set_link(noisy_tx, r, 3, 15e-9);
  }
  rig.transmit(quiet_tx, kWin + 50.0 / kFs, 1000);
  rig.transmit(noisy_tx, kWin + 70.0 / kFs, 1000);
  EXPECT_TRUE(
      rig.joint_matches({quiet_rx, unlinked_rx, rx}, kWin, 1300, quiet_rx));
}

TEST(MediumParity, JointNoiseFloorFollowsTheSharedStream) {
  // The rig takes its noise floor from a twin medium; this pins the floor
  // itself to the shared stream: per entry, n draws at its noise floor.
  // 300 samples take 600 normals, past one 256-pair block of
  // Rng::fill_cgaussian.
  for (const std::size_t n : {100u, 300u}) {
    Medium medium({}, 77);
    const std::vector<double> floor{2e-3, 1e-3};
    const NodeId plain = medium.add_node(quiet_osc(1), floor[0]);
    const NodeId other = medium.add_node(quiet_osc(2), floor[1]);
    const std::vector<NodeId> rxs{other, plain, other};
    std::vector<cvec> got(rxs.size());
    medium.receive_into(rxs, 0.0, n, got);

    // The reference draws through a fresh std::normal_distribution per
    // part on the std engine: the repo's rule, not Rng's code.
    std::mt19937_64 engine(77);
    const auto cgaussian = [&](double variance) {
      const double s = std::sqrt(variance / 2.0);
      const double re = std::normal_distribution<double>()(engine) * s + 0.0;
      const double im = std::normal_distribution<double>()(engine) * s + 0.0;
      return cplx{re, im};
    };
    for (std::size_t r = 0; r < rxs.size(); ++r) {
      cvec ref(n);
      for (cplx& v : ref) v = cgaussian(floor[rxs[r]]);
      ASSERT_EQ(got[r].size(), n);
      EXPECT_EQ(std::memcmp(got[r].data(), ref.data(), n * sizeof(cplx)), 0)
          << "n " << n << " entry " << r;
    }
  }
}

TEST(MediumParity, JointWindowOfZeroSamples) {
  JointFrame f;
  std::vector<cvec> out(2, cvec(5, cplx{1.0, 1.0}));
  const std::vector<NodeId> two{f.clients[0], f.clients[1]};
  f.rig.medium().receive_into(two, kWin, 0, out);
  EXPECT_TRUE(out[0].empty());
  EXPECT_TRUE(out[1].empty());
  f.rig.medium().receive_into({}, kWin, 100, {});
  EXPECT_TRUE(f.rig.joint_matches(f.clients, kWin, 0, f.clients[3]));
}

TEST(MediumParity, JointWindowWithAnUnknownIdThrowsAndDrawsNothing) {
  JointFrame f;
  Medium& medium = f.rig.medium();
  const std::vector<NodeId> rxs{f.clients[0], f.clients[1], 99, f.clients[2]};
  std::vector<cvec> out(rxs.size(), cvec(3, cplx{1.0, 1.0}));
  EXPECT_THROW(medium.receive_into(rxs, kWin, 4700, out),
               std::invalid_argument);
  for (const cvec& y : out) EXPECT_EQ(y, cvec(3, cplx{1.0, 1.0}));
  // One output too few, and a non-finite start, throw the same way.
  out.pop_back();
  EXPECT_THROW(medium.receive_into(f.clients, kWin, 4700, out),
               std::invalid_argument);
  out.resize(f.clients.size());
  EXPECT_THROW(medium.receive_into(f.clients, std::nan(""), 4700, out),
               std::invalid_argument);
  // No draw was taken: the noise stream still lines up with the twin's.
  EXPECT_TRUE(f.rig.matches(f.clients[0], kWin, 4700));
}

}  // namespace
}  // namespace jmb::chan
