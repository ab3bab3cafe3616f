// Tests for the modeling layers added during calibration: the
// well-conditioned channel regime, effective-SNR calibration of the
// sample-level system, the slave-correction ablation switch, and the
// closed-form link states the MAC benches draw from (SinrPool).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "core/link_model.h"
#include "dsp/stats.h"
#include "engine/system.h"
#include "linalg/pinv.h"
#include "phy/workspace.h"
#include "simd/backend.h"

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

bool same_bits(const rvec& a, const rvec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(SinrPool, EntriesAreInOrderCallsOfJmbSubcarrierSinrs) {
  Rng rng(21);
  const ChannelMatrixSet h = well_conditioned_channel_set(
      std::vector<std::vector<double>>(3, std::vector<double>(3, 100.0)), rng);
  const auto p = Precoder::build(h);
  ASSERT_TRUE(p.has_value());
  Rng pool_rng(5);
  Rng hand_rng(5);
  const SinrPool pool(h, *p, 6, pool_rng);
  ASSERT_EQ(pool.size(), 6u);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const std::vector<rvec> hand =
        jmb_subcarrier_sinrs(h, *p, kCalibratedPhaseSigma, 1.0, hand_rng);
    ASSERT_EQ(pool.entry(i).size(), hand.size());
    for (std::size_t c = 0; c < hand.size(); ++c) {
      EXPECT_TRUE(same_bits(pool.entry(i)[c], hand[c])) << i << "," << c;
    }
  }
  EXPECT_EQ(pool_rng.next_u64(), hand_rng.next_u64());
}

TEST(SinrPool, LookupNumberDrawReturnsEntryDrawOverStreams) {
  Rng rng(22);
  const ChannelMatrixSet h = random_channel_set(3, 4, rng);
  const auto p = Precoder::build(h);
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->n_streams(), 3u);
  SinrPool pool(h, *p, 4, rng);
  for (std::size_t draw = 0; draw < 30; ++draw) {
    const std::size_t c = (draw * 2) % 3;
    EXPECT_EQ(&pool.next(c), &pool.entry((draw / 3) % 4)[c]) << draw;
  }
  // A measurement epoch shifts later lookups by whole entries.
  pool.set_offset(3);
  for (std::size_t draw = 30; draw < 42; ++draw) {
    EXPECT_EQ(&pool.next(1), &pool.entry((3 + draw / 3) % 4)[1]) << draw;
  }
}

TEST(SinrPool, InterferenceDividesEveryEntry) {
  Rng rng(23);
  const ChannelMatrixSet h = random_channel_set(2, 2, rng);
  const auto p = Precoder::build(h);
  ASSERT_TRUE(p.has_value());
  const rvec interference{0.5, 1.0, 3.0};
  Rng a(8);
  Rng b(8);
  const SinrPool plain(h, *p, 3, a);
  const SinrPool shaded(h, *p, 3, b, interference);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t c = 0; c < 2; ++c) {
      const rvec& x = plain.entry(i)[c];
      const rvec& y = shaded.entry(i)[c];
      ASSERT_EQ(x.size(), y.size());
      for (std::size_t k = 0; k < x.size(); ++k) {
        EXPECT_EQ(y[k], x[k] / (1.0 + interference[k % 3]));
      }
    }
  }
}

TEST(MaskedSinrPool, FailedMaskIsZeroSnrAndKeepsTheCursor) {
  Rng rng(24);
  const ChannelMatrixSet h = random_channel_set(3, 4, rng);
  const std::vector<std::uint8_t> all{1, 1, 1, 1};
  const std::vector<std::uint8_t> two_up{1, 0, 0, 1};  // < 3 streams
  Workspace ws;
  MaskedSinrPool masked(h, ws, 4, Rng(9));
  Rng ref_rng(9);
  const auto p = Precoder::build_masked(h, all, ws, 1.0);
  ASSERT_TRUE(p.has_value());
  const SinrPool ref(h, *p, 4, ref_rng);

  EXPECT_TRUE(same_bits(masked.next(0, all), ref.entry(0)[0]));
  EXPECT_TRUE(same_bits(masked.next(1, all), ref.entry(0)[1]));
  for (int i = 0; i < 4; ++i) {
    const rvec& out = masked.next(2, two_up);
    EXPECT_EQ(out, rvec(phy::kNumDataCarriers, 0.0));
  }
  // Lookups 2 and 3: the outages above did not advance the cursor.
  EXPECT_TRUE(same_bits(masked.next(2, all), ref.entry(0)[2]));
  EXPECT_TRUE(same_bits(masked.next(0, all), ref.entry(1)[0]));
}

TEST(MaskedSinrPool, MasksDifferingAtAp0OrAp64GetDistinctPools) {
  Rng rng(25);
  const ChannelMatrixSet h = random_channel_set(2, 65, rng);
  std::vector<std::uint8_t> all(65, 1);
  std::vector<std::uint8_t> no_ap0 = all;
  no_ap0[0] = 0;
  std::vector<std::uint8_t> no_ap64 = all;
  no_ap64[64] = 0;
  Workspace ws;
  MaskedSinrPool masked(h, ws, 2, Rng(10));
  // Pools are built in first-request order from one stream.
  Rng ref_rng(10);
  std::vector<SinrPool> ref;
  for (const auto* mask : {&all, &no_ap0, &no_ap64}) {
    const auto p = Precoder::build_masked(h, *mask, ws, 1.0);
    ASSERT_TRUE(p.has_value());
    ref.emplace_back(h, *p, 2, ref_rng);
  }
  EXPECT_TRUE(same_bits(masked.next(0, all), ref[0].entry(0)[0]));
  EXPECT_TRUE(same_bits(masked.next(1, no_ap0), ref[1].entry(0)[1]));
  EXPECT_TRUE(same_bits(masked.next(0, no_ap64), ref[2].entry(1)[0]));
  // The masks really price differently (so the lookups above tell the
  // pools apart).
  EXPECT_FALSE(same_bits(ref[0].entry(0)[1], ref[1].entry(0)[1]));
  EXPECT_FALSE(same_bits(ref[0].entry(1)[0], ref[2].entry(1)[0]));
}

// ---- the link model's mismatch checks -------------------------------------

/// The std::invalid_argument message `f` throws ("" if it does not throw).
template <class F>
std::string thrown_message(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(LinkModel, RejectsAPrecoderForOtherTransmitters) {
  Rng rng(31);
  const ChannelMatrixSet h = random_channel_set(2, 2, rng);
  const auto p = Precoder::build(random_channel_set(2, 3, rng));
  ASSERT_TRUE(p.has_value());
  const rvec phase(2, 0.0);
  EXPECT_NE(thrown_message([&] { (void)beamforming_sinr(h, *p, phase, 1.0); })
                .find("n_tx"),
            std::string::npos);
  EXPECT_NE(thrown_message([&] {
              (void)jmb_subcarrier_sinrs(h, *p, 0.02, 1.0, rng);
            }).find("n_tx"),
            std::string::npos);
  EXPECT_NE(thrown_message([&] { SinrPool pool(h, *p, 2, rng); }).find("n_tx"),
            std::string::npos);
}

TEST(LinkModel, RejectsAPrecoderWithFewerStreamsThanClients) {
  // 3 clients on 2 APs: build_kind greedy-selects 2 streams. Client 2 has
  // no column of G, so the report used to read past the end of it.
  Rng rng(32);
  const ChannelMatrixSet h = random_channel_set(3, 2, rng);
  const auto p = Precoder::build_kind(h, PrecoderConfig{});
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->n_streams(), 2u);
  const rvec phase(2, 0.0);
  EXPECT_NE(thrown_message([&] { (void)beamforming_sinr(h, *p, phase, 1.0); })
                .find("n_streams"),
            std::string::npos);
  EXPECT_NE(thrown_message([&] {
              (void)jmb_subcarrier_sinrs(h, *p, 0.02, 1.0, rng);
            }).find("n_streams"),
            std::string::npos);
  EXPECT_NE(
      thrown_message([&] { SinrPool pool(h, *p, 2, rng); }).find("n_streams"),
      std::string::npos);
}

TEST(LinkModel, RejectsAPrecoderOverOtherSubcarriers) {
  // A default-constructed precoder covers no subcarriers.
  Rng rng(33);
  const ChannelMatrixSet h = random_channel_set(2, 2, rng);
  const Precoder empty{};
  const rvec phase(2, 0.0);
  EXPECT_NE(
      thrown_message([&] { (void)beamforming_sinr(h, empty, phase, 1.0); })
          .find("n_subcarriers"),
      std::string::npos);
  EXPECT_NE(thrown_message([&] {
              (void)jmb_subcarrier_sinrs(h, empty, 0.02, 1.0, rng);
            }).find("n_subcarriers"),
            std::string::npos);
}

// ---- bit parity with the per-subcarrier link model ------------------------
//
// Test-local copies of random_channel_set_with_gains,
// well_conditioned_channel_set and beamforming_sinr as they were before
// the subcarrier-batched beam_gains kernel: one link, one row copy and one
// matrix at a time. The library must match them bit for bit.

ChannelMatrixSet reference_channel_set(
    const std::vector<std::vector<double>>& gains, Rng& rng,
    double rice_k = 0.0) {
  const std::size_t n_clients = gains.size();
  const std::size_t n_tx = gains[0].size();
  ChannelMatrixSet h(n_clients, n_tx);
  for (std::size_t c = 0; c < n_clients; ++c) {
    for (std::size_t a = 0; a < n_tx; ++a) {
      const double p0 = 0.8 * gains[c][a];
      const cplx los = phasor(rng.uniform_phase()) *
                       std::sqrt(p0 * rice_k / (rice_k + 1.0));
      const cplx tap0 = los + rng.cgaussian(p0 / (rice_k + 1.0));
      const cplx tap1 = rng.cgaussian(0.2 * gains[c][a]);
      const auto& used = used_subcarriers();
      for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
        const double ang = -kTwoPi * static_cast<double>(used[k]) / 64.0;
        h.at(k)(c, a) = tap0 + tap1 * phasor(ang);
      }
    }
  }
  return h;
}

void set_row(CMatrix& m, std::size_t r, const cvec& v) {
  for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = v[c];
}

ChannelMatrixSet reference_well_conditioned(
    const std::vector<std::vector<double>>& gains, Rng& rng) {
  const std::size_t nc = gains.size();
  const std::size_t nt = gains[0].size();
  ChannelMatrixSet h = reference_channel_set(
      std::vector<std::vector<double>>(nc, std::vector<double>(nt, 1.0)), rng);
  for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
    CMatrix& m = h.at(k);
    for (std::size_t c = 0; c < nc; ++c) {
      cvec row = m.row(c);
      for (std::size_t p = 0; p < c; ++p) {
        const cvec prev = m.row(p);
        cplx proj{};
        for (std::size_t a = 0; a < nt; ++a) {
          proj += std::conj(prev[a]) * row[a];
        }
        for (std::size_t a = 0; a < nt; ++a) row[a] -= proj * prev[a];
      }
      double norm2 = 0.0;
      for (const cplx& v : row) norm2 += std::norm(v);
      double target = 0.0;
      for (std::size_t a = 0; a < nt && a < gains[c].size(); ++a) {
        target = std::max(target, gains[c][a]);
      }
      const double s = norm2 > 1e-30 ? std::sqrt(target / norm2) : 0.0;
      for (cplx& v : row) v *= s;
      set_row(m, c, row);
      if (c + 1 < nc) {
        cvec unit = row;
        const double inv =
            std::sqrt(target) > 1e-30 ? 1.0 / std::sqrt(target) : 0.0;
        for (cplx& v : unit) v *= inv;
        set_row(m, c, unit);
      }
    }
    for (std::size_t c = 0; c < nc; ++c) {
      double target = 0.0;
      for (std::size_t a = 0; a < nt && a < gains[c].size(); ++a) {
        target = std::max(target, gains[c][a]);
      }
      cvec row = m.row(c);
      double norm2 = 0.0;
      for (const cplx& v : row) norm2 += std::norm(v);
      const double s = norm2 > 1e-30 ? std::sqrt(target / norm2) : 0.0;
      for (cplx& v : row) v *= s;
      set_row(m, c, row);
    }
  }
  return h;
}

SinrReport reference_beamforming_sinr(const ChannelMatrixSet& h,
                                      const Precoder& precoder,
                                      const rvec& phase_err,
                                      double noise_power) {
  const std::size_t nc = h.n_clients();
  SinrReport rep;
  rep.sinr.assign(nc, 0.0);
  rep.snr_no_interference.assign(nc, 0.0);
  rep.sinr_per_subcarrier.assign(nc, rvec(h.n_subcarriers(), 0.0));
  cvec rot(h.n_tx());
  for (std::size_t a = 0; a < h.n_tx(); ++a) rot[a] = phasor(phase_err[a]);
  CMatrix h_err;
  CMatrix g;
  for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
    h_err = h.at(k);
    for (std::size_t c = 0; c < nc; ++c) {
      for (std::size_t a = 0; a < h.n_tx(); ++a) h_err(c, a) *= rot[a];
    }
    multiply_into(h_err, precoder.weights(k), g);
    for (std::size_t c = 0; c < nc; ++c) {
      const double sig = std::norm(g(c, c));
      double interf = 0.0;
      for (std::size_t j = 0; j < nc; ++j) {
        if (j != c) interf += std::norm(g(c, j));
      }
      const double sinr = sig / (interf + noise_power);
      rep.sinr_per_subcarrier[c][k] = sinr;
      rep.sinr[c] += sinr;
      rep.snr_no_interference[c] += sig / noise_power;
    }
  }
  const double inv = 1.0 / static_cast<double>(h.n_subcarriers());
  for (std::size_t c = 0; c < nc; ++c) {
    rep.sinr[c] *= inv;
    rep.snr_no_interference[c] *= inv;
  }
  return rep;
}

bool same_bits(const ChannelMatrixSet& a, const ChannelMatrixSet& b) {
  if (a.n_clients() != b.n_clients() || a.n_tx() != b.n_tx() ||
      a.n_subcarriers() != b.n_subcarriers()) {
    return false;
  }
  for (std::size_t k = 0; k < a.n_subcarriers(); ++k) {
    if (std::memcmp(&a.at(k)(0, 0), &b.at(k)(0, 0),
                    a.n_clients() * a.n_tx() * sizeof(cplx)) != 0) {
      return false;
    }
  }
  return true;
}

bool same_bits(const SinrReport& a, const SinrReport& b) {
  if (!same_bits(a.sinr, b.sinr) ||
      !same_bits(a.snr_no_interference, b.snr_no_interference) ||
      a.sinr_per_subcarrier.size() != b.sinr_per_subcarrier.size()) {
    return false;
  }
  for (std::size_t c = 0; c < a.sinr_per_subcarrier.size(); ++c) {
    if (!same_bits(a.sinr_per_subcarrier[c], b.sinr_per_subcarrier[c])) {
      return false;
    }
  }
  return true;
}

/// Per-link gains spread over 0..30 dB, with client 0's row at zero when
/// `dead_row` (a zero row target exercises Gram-Schmidt's zero scale).
std::vector<std::vector<double>> spread_gains(std::size_t nc, std::size_t nt,
                                              Rng& rng, bool dead_row) {
  std::vector<std::vector<double>> gains(nc, std::vector<double>(nt));
  for (auto& row : gains) {
    for (double& g : row) g = from_db(rng.uniform(0.0, 30.0));
  }
  if (dead_row) gains[0].assign(nt, 0.0);
  return gains;
}

TEST(LinkModelParity, ChannelDrawsMatchThePerLinkLoop) {
  Rng gains_rng(41);
  for (std::size_t nc = 1; nc <= 10; ++nc) {
    for (const std::size_t nt : {nc, nc + 3}) {
      for (const double rice_k : {0.0, 4.0}) {
        const auto gains = spread_gains(nc, nt, gains_rng, false);
        Rng a(nc * 100 + nt);
        Rng b(nc * 100 + nt);
        const ChannelMatrixSet got =
            random_channel_set_with_gains(gains, a, 52, rice_k);
        const ChannelMatrixSet want = reference_channel_set(gains, b, rice_k);
        EXPECT_TRUE(same_bits(got, want)) << nc << "x" << nt << " K=" << rice_k;
        EXPECT_EQ(a.next_u64(), b.next_u64()) << nc << "x" << nt;
      }
    }
  }
}

TEST(LinkModelParity, WellConditionedMatchesTheRowCopyingGramSchmidt) {
  Rng gains_rng(42);
  for (std::size_t nc = 1; nc <= 10; ++nc) {
    for (const std::size_t nt : {nc, nc + 2}) {
      for (const bool dead_row : {false, true}) {
        const auto gains = spread_gains(nc, nt, gains_rng, dead_row);
        Rng a(nc * 100 + nt);
        Rng b(nc * 100 + nt);
        const ChannelMatrixSet got = well_conditioned_channel_set(gains, a);
        const ChannelMatrixSet want = reference_well_conditioned(gains, b);
        EXPECT_TRUE(same_bits(got, want))
            << nc << "x" << nt << " dead_row=" << dead_row;
        EXPECT_EQ(a.next_u64(), b.next_u64()) << nc << "x" << nt;
      }
    }
  }
}

TEST(LinkModelParity, BeamformingSinrMatchesThePerSubcarrierLoop) {
  // Channels: well conditioned, i.i.d., and i.i.d. with exact +-0 entries
  // (zero H_err entries take multiply_into's skip). Precoders: ZF, RZF,
  // conjugate, and a masked ZF whose zero W rows mark a failed AP. The
  // reference runs once on the scalar table; every backend must match it.
  struct Case {
    ChannelMatrixSet h;
    Precoder p;
    rvec phase;
    double noise;
  };
  std::vector<Case> cases;
  Rng rng(43);
  Workspace ws;
  for (std::size_t nc = 1; nc <= 10; ++nc) {
    for (const std::size_t nt : {nc, nc + 2}) {
      std::vector<ChannelMatrixSet> channels;
      channels.push_back(well_conditioned_channel_set(
          spread_gains(nc, nt, rng, false), rng));
      channels.push_back(random_channel_set(nc, nt, rng));
      ChannelMatrixSet zeros = random_channel_set(nc, nt, rng);
      for (std::size_t k = 0; k < zeros.n_subcarriers(); ++k) {
        for (std::size_t c = 0; c < nc; ++c) {
          for (std::size_t a = 0; a < nt; ++a) {
            const std::size_t pick = (k + 2 * c + 3 * a) % 7;
            if (pick == 0) zeros.at(k)(c, a) = cplx{0.0, 0.0};
            if (pick == 1) zeros.at(k)(c, a) = cplx{-0.0, 0.0};
            if (pick == 2) zeros.at(k)(c, a) = cplx{0.0, -0.0};
            if (pick == 3) zeros.at(k)(c, a) = cplx{-0.0, -0.0};
          }
        }
      }
      channels.push_back(std::move(zeros));
      for (const ChannelMatrixSet& h : channels) {
        std::vector<std::optional<Precoder>> precoders;
        PrecoderConfig cfg;
        precoders.push_back(Precoder::build_kind(h, cfg));
        cfg.kind = phy::PrecoderKind::kRzf;
        cfg.ridge = 0.1;
        precoders.push_back(Precoder::build_kind(h, cfg));
        cfg.kind = phy::PrecoderKind::kConj;
        precoders.push_back(Precoder::build_kind(h, cfg));
        if (nt > nc) {
          std::vector<std::uint8_t> mask(nt, 1);
          mask[nc % nt] = 0;
          precoders.push_back(Precoder::build_masked(h, mask, ws, 1.0));
        }
        for (auto& p : precoders) {
          if (!p) continue;
          rvec phase(nt, 0.0);
          for (std::size_t a = 1; a < nt; ++a) phase[a] = rng.gaussian(0.05);
          cases.push_back(Case{h, std::move(*p), phase, rng.uniform(0.1, 2.0)});
        }
      }
    }
  }
  ASSERT_GT(cases.size(), 200u);

  ASSERT_TRUE(simd::set_backend(simd::Backend::kScalar));
  std::vector<SinrReport> want;
  for (const Case& c : cases) {
    want.push_back(reference_beamforming_sinr(c.h, c.p, c.phase, c.noise));
  }
  for (const simd::Backend b :
       {simd::Backend::kScalar, simd::Backend::kSse2, simd::Backend::kAvx2,
        simd::Backend::kAvx512, simd::Backend::kNeon}) {
    if (!simd::set_backend(b)) continue;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      EXPECT_TRUE(same_bits(beamforming_sinr(c.h, c.p, c.phase, c.noise),
                            want[i]))
          << simd::backend_name(b) << " case " << i << ": "
          << c.h.n_clients() << "x" << c.h.n_tx();
    }
  }
  simd::reset_backend_cache();
}

TEST(BestApSnrs, FlatAtTheBestUpAp) {
  const std::vector<double> gains{4.0, 9.0, 6.0};
  EXPECT_EQ(best_ap_snrs(gains), rvec(phy::kNumDataCarriers, 9.0));
  const std::vector<std::uint8_t> up{1, 0, 1};
  EXPECT_EQ(best_ap_snrs(gains, up), rvec(phy::kNumDataCarriers, 6.0));
  const std::vector<std::uint8_t> none{0, 0, 0};
  EXPECT_EQ(best_ap_snrs(gains, none), rvec(phy::kNumDataCarriers, 0.0));
}

}  // namespace
}  // namespace jmb::core
