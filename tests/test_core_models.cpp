// Tests for the modeling layers added during calibration: the
// well-conditioned channel regime, effective-SNR calibration of the
// sample-level system, and the slave-correction ablation switch.
#include <gtest/gtest.h>

#include <cmath>

#include "core/link_model.h"
#include "dsp/stats.h"
#include "engine/system.h"
#include "linalg/pinv.h"

namespace jmb::core {
namespace {

TEST(WellConditioned, RowsAreOrthogonalPerSubcarrier) {
  Rng rng(1);
  const std::vector<std::vector<double>> gains(
      4, std::vector<double>(4, from_db(15.0)));
  const ChannelMatrixSet h = well_conditioned_channel_set(gains, rng);
  for (std::size_t k = 0; k < h.n_subcarriers(); k += 9) {
    const CMatrix& m = h.at(k);
    for (std::size_t a = 0; a < 4; ++a) {
      for (std::size_t b = a + 1; b < 4; ++b) {
        cplx dot{};
        double na = 0.0, nb = 0.0;
        for (std::size_t t = 0; t < 4; ++t) {
          dot += std::conj(m(a, t)) * m(b, t);
          na += std::norm(m(a, t));
          nb += std::norm(m(b, t));
        }
        EXPECT_LT(std::abs(dot) / std::sqrt(na * nb), 1e-6)
            << "rows " << a << "," << b << " subcarrier " << k;
      }
    }
  }
}

TEST(WellConditioned, RowPowerTracksBestLink) {
  Rng rng(2);
  std::vector<std::vector<double>> gains{
      {from_db(20.0), from_db(10.0)},
      {from_db(8.0), from_db(14.0)},
  };
  const ChannelMatrixSet h = well_conditioned_channel_set(gains, rng);
  for (std::size_t c = 0; c < 2; ++c) {
    double acc = 0.0;
    for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
      acc += h.at(k).row_power(c);
    }
    acc /= static_cast<double>(h.n_subcarriers());
    const double best = c == 0 ? from_db(20.0) : from_db(14.0);
    EXPECT_NEAR(to_db(acc), to_db(best), 0.5) << c;
  }
}

TEST(WellConditioned, ConditioningIsMild) {
  // The whole point of the regime: even 8x8 sets stay well conditioned,
  // unlike i.i.d. draws.
  Rng rng(3);
  const std::vector<std::vector<double>> gains(
      8, std::vector<double>(8, 1.0));
  const ChannelMatrixSet h_wc = well_conditioned_channel_set(gains, rng);
  const ChannelMatrixSet h_iid = random_channel_set_with_gains(gains, rng);
  RunningStats cond_wc, cond_iid;
  for (std::size_t k = 0; k < h_wc.n_subcarriers(); k += 5) {
    cond_wc.add(to_db(condition_number(h_wc.at(k))));
    cond_iid.add(to_db(condition_number(h_iid.at(k))));
  }
  EXPECT_LT(cond_wc.mean(), 2.0);  // near-unitary up to row scaling
  EXPECT_GT(cond_iid.mean(), cond_wc.mean() + 6.0);
}

TEST(WellConditioned, ZfScaleNearBestGain) {
  // With orthogonal rows the per-antenna normalization costs only the
  // harmonic spread, so the delivered per-stream SNR sits within a few dB
  // of the best link — the property behind the paper's ~N gains.
  Rng rng(4);
  const double best = from_db(18.0);
  const std::vector<std::vector<double>> gains(
      6, std::vector<double>(6, best));
  const ChannelMatrixSet h = well_conditioned_channel_set(gains, rng);
  const auto p = Precoder::build(h);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(to_db(p->predicted_snr(1.0)), 18.0, 2.5);
}

TEST(WellConditioned, InputValidation) {
  Rng rng(5);
  EXPECT_THROW((void)well_conditioned_channel_set({}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)well_conditioned_channel_set(
                   {{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}}, rng),
               std::invalid_argument);  // more clients than antennas
}

TEST(Calibration, SetsPredictedEffectiveSnr) {
  SystemParams p;
  p.n_aps = 2;
  p.n_clients = 2;
  p.seed = 21;
  const double g = JmbSystem::gain_for_snr_db(26.0, 1.0);
  JmbSystem sys(p, {{g, g}, {g, g}});
  ASSERT_TRUE(sys.run_measurement());
  const double before = sys.predicted_beamforming_snr_db();
  const double delta = sys.calibrate_to_effective_snr(15.0);
  EXPECT_NEAR(delta, before - 15.0, 1e-9);
  // The prediction now reports the target (same H, adjusted noise).
  EXPECT_NEAR(sys.predicted_beamforming_snr_db(), 15.0, 1e-6);
}

TEST(Ablation, DisablingSlaveCorrectionBreaksNulls) {
  // The paper's core claim in one assertion: with phase sync the nulls
  // hold; without it (drifted oscillators, no correction) the nulled
  // client sees the other stream nearly full strength.
  rvec with_sync, without_sync;
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    for (bool disable : {false, true}) {
      SystemParams p;
      p.n_aps = 2;
      p.n_clients = 2;
      p.seed = seed;
      p.disable_slave_correction = disable;
      const double g = JmbSystem::gain_for_snr_db(25.0, 1.0);
      JmbSystem sys(p, {{g, g}, {g, g}});
      ASSERT_TRUE(sys.run_measurement());
      sys.calibrate_to_effective_snr(20.0);
      sys.advance_time(2e-3);
      ASSERT_TRUE(sys.run_measurement());
      // Let the oscillators drift well away from the snapshot.
      sys.advance_time(20e-3);
      (disable ? without_sync : with_sync).push_back(sys.measure_inr(0));
    }
  }
  // Without correction, the oscillator offsets (kHz-scale) rotate the
  // slave's signal arbitrarily: interference ~ the full stream power.
  EXPECT_GT(median(without_sync), median(with_sync) + 6.0);
  EXPECT_GT(median(without_sync), 10.0);
}

TEST(Oscillator, MemoConsistencyUnderMixedQueries) {
  // The last-query memo must never change values: interleave forward and
  // backward queries and compare against a fresh instance.
  chan::OscillatorParams p{.ppm = 0.0,
                           .carrier_hz = 2.4e9,
                           .sample_rate_hz = 10e6,
                           .phase_noise_linewidth_hz = 1.0,
                           .seed = 99};
  chan::Oscillator a(p), b(p);
  const std::uint64_t q[] = {50000, 10000, 50001, 49999, 120000, 10000, 120001};
  for (std::uint64_t n : q) {
    EXPECT_EQ(a.phase_noise_at(n), b.phase_noise_at(n)) << n;
  }
  // And against an instance that only ever saw the final query.
  chan::Oscillator c(p);
  EXPECT_EQ(c.phase_noise_at(120001), a.phase_noise_at(120001));
}

TEST(LinkModel, PrecoderCachedOverloadMatches) {
  Rng rng(6);
  const ChannelMatrixSet h = random_channel_set(3, 3, rng);
  const auto p = Precoder::build(h);
  ASSERT_TRUE(p.has_value());
  const rvec phase{0.0, 0.05, -0.03};
  const SinrReport a = beamforming_sinr(h, phase, 0.5);
  const SinrReport b = beamforming_sinr(h, *p, phase, 0.5);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(a.sinr[c], b.sinr[c], a.sinr[c] * 1e-12);
  }
}

}  // namespace
}  // namespace jmb::core
