// Unit tests for the JMB core building blocks: types, precoders, the link
// model, phase-sync bookkeeping, and the naive-CFO strawman.
#include <gtest/gtest.h>

#include <cmath>

#include "core/link_model.h"
#include "core/naive_baseline.h"
#include "core/phase_sync.h"
#include "core/precoder.h"
#include "core/types.h"
#include "dsp/stats.h"
#include "phy/workspace.h"

namespace jmb::core {
namespace {

/// Post-combining signal amplitude gain on one subcarrier: sum_i h_i w_i.
cplx combined_gain(const MrtPrecoder& mrt, std::size_t used_idx,
                   const cvec& h_subcarrier) {
  const cvec& w = mrt.weights(used_idx);
  cplx acc{};
  for (std::size_t i = 0; i < w.size(); ++i) acc += h_subcarrier[i] * w[i];
  return acc;
}

double mean(const rvec& x) {
  double acc = 0.0;
  for (const double v : x) acc += v;
  return acc / static_cast<double>(x.size());
}

TEST(Types, UsedSubcarrierLayout) {
  const auto& used = used_subcarriers();
  ASSERT_EQ(used.size(), 52u);
  EXPECT_EQ(used.front(), -26);
  EXPECT_EQ(used.back(), 26);
  // Ascending, DC skipped.
  EXPECT_EQ(used[25], -1);
  EXPECT_EQ(used[26], 1);
  for (std::size_t i = 1; i < used.size(); ++i) {
    EXPECT_LT(used[i - 1], used[i]);
  }
}

TEST(Types, ChannelMatrixSetShape) {
  ChannelMatrixSet h(3, 5);
  EXPECT_EQ(h.n_clients(), 3u);
  EXPECT_EQ(h.n_tx(), 5u);
  EXPECT_EQ(h.n_subcarriers(), 52u);
  h.at(0)(1, 2) = cplx{2.0, 0.0};
  EXPECT_NEAR(h.mean_link_power(1, 2), 4.0 / 52.0, 1e-12);
}

TEST(ZfPrecoderTest, DiagonalizesRandomChannels) {
  Rng rng(1);
  for (std::size_t n : {2u, 4u, 8u}) {
    const ChannelMatrixSet h = random_channel_set(n, n, rng);
    const auto p = Precoder::build(h);
    ASSERT_TRUE(p.has_value());
    EXPECT_GT(p->scale(), 0.0);
    for (std::size_t k = 0; k < h.n_subcarriers(); k += 13) {
      const CMatrix g = h.at(k) * p->weights(k);
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t j = 0; j < n; ++j) {
          if (c == j) {
            EXPECT_NEAR(std::abs(g(c, j)), p->scale(), 1e-9);
          } else {
            EXPECT_NEAR(std::abs(g(c, j)), 0.0, 1e-9);
          }
        }
      }
    }
  }
}

TEST(ZfPrecoderTest, RespectsPerAntennaPower) {
  Rng rng(2);
  const double budget = 0.7;
  const ChannelMatrixSet h = random_channel_set(3, 6, rng);
  const auto p = Precoder::build(h, budget);
  ASSERT_TRUE(p.has_value());
  // No antenna's mean per-subcarrier power exceeds the budget; the
  // hungriest antenna uses it fully.
  double max_power = 0.0;
  for (std::size_t a = 0; a < 6; ++a) {
    double mean_row = 0.0;
    for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
      mean_row += p->weights(k).row_power(a);
    }
    mean_row /= static_cast<double>(h.n_subcarriers());
    EXPECT_LE(mean_row, budget * (1.0 + 1e-9));
    max_power = std::max(max_power, mean_row);
  }
  EXPECT_NEAR(max_power, budget, 1e-9);
}

TEST(ZfPrecoderTest, MoreAntennasThanClientsUsesPinv) {
  Rng rng(3);
  const ChannelMatrixSet h = random_channel_set(2, 5, rng);
  const auto p = Precoder::build(h);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->n_tx(), 5u);
  EXPECT_EQ(p->n_streams(), 2u);
  const CMatrix g = h.at(7) * p->weights(7);
  EXPECT_NEAR(std::abs(g(0, 1)), 0.0, 1e-9);
  EXPECT_NEAR(std::abs(g(1, 0)), 0.0, 1e-9);
}

TEST(ZfPrecoderTest, RejectsUnderdetermined) {
  Rng rng(4);
  const ChannelMatrixSet h = random_channel_set(4, 2, rng);
  EXPECT_THROW((void)Precoder::build(h), std::invalid_argument);
}

TEST(ZfPrecoderTest, TransmitVectorMatchesWeights) {
  Rng rng(5);
  const ChannelMatrixSet h = random_channel_set(2, 3, rng);
  const auto p = Precoder::build(h);
  ASSERT_TRUE(p.has_value());
  const cvec x{cplx{1.0, 0.0}, cplx{0.0, -1.0}};
  cvec tx(p->n_tx());
  p->transmit_vector_into(11, x, tx);
  const cvec expect = p->weights(11) * x;
  for (std::size_t i = 0; i < tx.size(); ++i) {
    EXPECT_NEAR(std::abs(tx[i] - expect[i]), 0.0, 1e-12);
  }
}

TEST(ZfPrecoderTest, WorkspaceBuildIsBitwiseIdentical) {
  Rng rng(6);
  const ChannelMatrixSet h = random_channel_set(3, 5, rng);
  const auto legacy = Precoder::build(h);
  // The pipeline's warm path: an in-place rebuild through the workspace's
  // pseudo-inverse scratch, here over a first build of another channel.
  Workspace ws;
  std::optional<Precoder> reusing;
  reusing.emplace();
  ASSERT_TRUE(
      reusing->rebuild_kind(random_channel_set(3, 5, rng), {}, ws.pinv));
  ASSERT_TRUE(reusing->rebuild_kind(h, {}, ws.pinv));
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->scale(), reusing->scale());
  for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
    const CMatrix& a = legacy->weights(k);
    const CMatrix& b = reusing->weights(k);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      for (std::size_t c = 0; c < a.cols(); ++c) {
        EXPECT_EQ(a(r, c).real(), b(r, c).real());
        EXPECT_EQ(a(r, c).imag(), b(r, c).imag());
      }
    }
  }
}

TEST(MrtPrecoderTest, AlignsPhasesAtClient) {
  Rng rng(6);
  std::vector<cvec> h(52);
  for (auto& row : h) row = rng.cgaussian_vec(4);
  const MrtPrecoder mrt = MrtPrecoder::build(h);
  for (std::size_t k = 0; k < 52; k += 7) {
    const cplx g = combined_gain(mrt, k, h[k]);
    // Coherent combining: gain equals the sum of magnitudes, phase 0.
    double expect = 0.0;
    for (const cplx& v : h[k]) expect += std::abs(v);
    EXPECT_NEAR(g.real(), expect, 1e-9);
    EXPECT_NEAR(g.imag(), 0.0, 1e-9);
  }
}

TEST(MrtPrecoderTest, N2ScalingOfSnr) {
  // With equal-magnitude channels, MRT power gain scales as N^2.
  std::vector<cvec> h2(52, cvec(2, cplx{1.0, 0.0}));
  std::vector<cvec> h8(52, cvec(8, cplx{1.0, 0.0}));
  const auto g2 = combined_gain(MrtPrecoder::build(h2), 0, h2[0]);
  const auto g8 = combined_gain(MrtPrecoder::build(h8), 0, h8[0]);
  EXPECT_NEAR(std::norm(g8) / std::norm(g2), 16.0, 1e-9);
}

TEST(LinkModel, PerfectAlignmentHasNoInterference) {
  Rng rng(7);
  const ChannelMatrixSet h = random_channel_set(4, 4, rng);
  const SinrReport rep = beamforming_sinr(h, rvec(4, 0.0), 1e-3);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(rep.sinr[c], rep.snr_no_interference[c],
                rep.snr_no_interference[c] * 1e-6);
  }
}

TEST(LinkModel, MisalignmentCostGrowsWithPhaseError) {
  Rng rng(8);
  double prev = 0.0;
  for (double mis : {0.05, 0.15, 0.3, 0.5}) {
    const double red = snr_reduction_db(2, 2, mis, 20.0, 60, rng);
    EXPECT_GT(red, prev);
    prev = red;
  }
  // The paper's headline number: ~8 dB at 0.35 rad, 20 dB SNR (Fig. 6).
  const double at_035 = snr_reduction_db(2, 2, 0.35, 20.0, 200, rng);
  EXPECT_GT(at_035, 5.0);
  EXPECT_LT(at_035, 11.0);
}

TEST(LinkModel, HigherSnrSuffersMoreFromMisalignment) {
  Rng rng(9);
  const double red10 = snr_reduction_db(2, 2, 0.35, 10.0, 150, rng);
  const double red20 = snr_reduction_db(2, 2, 0.35, 20.0, 150, rng);
  EXPECT_GT(red20, red10 + 1.0);  // Fig. 6's key observation
}

TEST(LinkModel, InrGrowsWithApCount) {
  Rng rng(10);
  const double sigma = 0.02;
  rvec inr;
  for (std::size_t n : {2u, 6u, 10u}) {
    // Conference-room (LOS-ish, well conditioned) channels, as in Fig. 8.
    const ChannelMatrixSet h = random_channel_set_with_gains(
        std::vector<std::vector<double>>(n, std::vector<double>(n, 1.0)), rng,
        52, /*rice_k=*/2.0);
    const auto p = Precoder::build(h);
    ASSERT_TRUE(p.has_value());
    const double noise = p->scale() * p->scale() / from_db(20.0);
    inr.push_back(expected_inr_db(h, sigma, noise, 40, rng));
  }
  EXPECT_LT(inr[0], inr[2]);
  // Shape check (Fig. 8): stays modest even at 10 APs.
  EXPECT_LT(inr[2], 4.0);
  EXPECT_GT(inr[0], -0.5);
}

TEST(LinkModel, BaselinePicksBestAp) {
  Rng rng(11);
  std::vector<std::vector<double>> gains{{0.1, 9.0, 0.5}};
  const ChannelMatrixSet h = random_channel_set_with_gains(gains, rng);
  const auto snrs = baseline_subcarrier_snrs(h, 1.0);
  ASSERT_EQ(snrs.size(), 1u);
  // Mean SNR should reflect the strong AP's gain (Rayleigh draw around 9).
  EXPECT_GT(mean(snrs[0]), 1.0);
  double direct = 0.0;
  for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
    direct += std::norm(h.at(k)(0, 1));
  }
  direct /= static_cast<double>(h.n_subcarriers());
  EXPECT_NEAR(mean(snrs[0]), direct, 1e-9);
}

TEST(LinkModel, DiversitySnrScalesQuadratically) {
  Rng rng(12);
  std::vector<cvec> h2(52, cvec(2, cplx{1.0, 0.0}));
  std::vector<cvec> h10(52, cvec(10, cplx{1.0, 0.0}));
  const rvec s2 = diversity_subcarrier_snrs(h2, 0.0, 1.0, rng);
  const rvec s10 = diversity_subcarrier_snrs(h10, 0.0, 1.0, rng);
  EXPECT_NEAR(s10[0] / s2[0], 25.0, 1e-9);
}

TEST(PhaseSync, RequiresReference) {
  SlavePhaseSync sync;
  EXPECT_FALSE(sync.has_reference());
  phy::ChannelEstimate est;
  EXPECT_THROW((void)sync.on_sync_header(est, 0.0, 1.0), std::logic_error);
}

TEST(PhaseSync, MeasuresRotationDirectly) {
  SlavePhaseSync sync;
  phy::ChannelEstimate ref;
  Rng rng(13);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    ref.set(k, rng.cgaussian() + cplx{1.0, 0.0});
  }
  sync.set_reference(ref, 0.0);
  EXPECT_TRUE(sync.has_reference());

  phy::ChannelEstimate now = ref;
  const double phi = 1.234;
  now.rotate(phi);
  const SlaveCorrection corr = sync.on_sync_header(now, 100.0, 0.01);
  EXPECT_NEAR(std::arg(corr.phasor_at_header), phi, 1e-9);
  EXPECT_NEAR(std::abs(corr.phasor_at_header), 1.0, 1e-12);
  // Within-packet extrapolation uses the averaged CFO.
  EXPECT_NEAR(std::arg(corr.at(1e-4) * std::conj(corr.phasor_at_header)),
              kTwoPi * corr.cfo_hz * 1e-4, 1e-9);
}

TEST(PhaseSync, CfoAverageConvergesAndRefines) {
  // Feed sync headers generated by a true CFO of 1234.5 Hz with noisy
  // per-header estimates; the long-term estimate must converge well below
  // the single-shot noise.
  const double truth = 1234.5;
  SlavePhaseSync sync;
  Rng rng(14);
  phy::ChannelEstimate ref;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    ref.set(k, rng.cgaussian() + cplx{2.0, 0.0});
  }
  sync.set_reference(ref, 0.0);
  double t = 0.0;
  for (int pkt = 0; pkt < 400; ++pkt) {
    t += 2e-3 + rng.uniform(0.0, 1e-3);
    phy::ChannelEstimate now = ref;
    now.rotate(wrap_phase(kTwoPi * truth * t) + rng.gaussian(0.01));
    const double noisy_est = truth + rng.gaussian(150.0);
    (void)sync.on_sync_header(now, noisy_est, t);
  }
  EXPECT_NEAR(sync.cfo_estimate_hz(), truth, 5.0);
}

TEST(NaiveBaseline, ErrorGrowsWithTime) {
  Rng rng(15);
  const NaiveSyncParams p{.cfo_estimation_error_hz = 10.0,
                          .phase_noise_linewidth_hz = 0.0};
  RunningStats early, late;
  for (int i = 0; i < 3000; ++i) {
    early.add(std::abs(naive_phase_error(1e-3, p, rng)));
    late.add(std::abs(naive_phase_error(5.5e-3, p, rng)));
  }
  // The paper's example: 10 Hz error -> ~0.35 rad within 5.5 ms.
  // E|N(0, s)| = s sqrt(2/pi); s = 2 pi * 10 * 5.5e-3 = 0.346.
  EXPECT_NEAR(late.mean(), 0.346 * std::sqrt(2.0 / kPi), 0.03);
  EXPECT_GT(late.mean(), 4.0 * early.mean());
}

TEST(NaiveBaseline, JmbErrorBoundedByPacket) {
  Rng rng(16);
  RunningStats naive_20ms, jmb_20ms;
  const NaiveSyncParams p{.cfo_estimation_error_hz = 100.0,
                          .phase_noise_linewidth_hz = 0.1};
  for (int i = 0; i < 3000; ++i) {
    naive_20ms.add(std::abs(naive_phase_error(20e-3, p, rng)));
    // JMB re-synced at the packet start 1 ms ago, residual CFO ~ 5 Hz.
    jmb_20ms.add(std::abs(jmb_phase_error(1e-3, 5.0, 0.017, 0.1, rng)));
  }
  // 100 Hz * 20 ms -> phase wraps ~ uniformly: mean |wrapped| ~ pi/2.
  EXPECT_GT(naive_20ms.mean(), 1.0);
  EXPECT_LT(jmb_20ms.mean(), 0.05);
}

}  // namespace
}  // namespace jmb::core
