// Tests for BER models, effective SNR, rate selection, airtime and PER.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chan/topology.h"
#include "core/link_model.h"
#include "core/precoder.h"
#include "dsp/rng.h"

#include "rate/airtime.h"
#include "rate/ber.h"
#include "rate/effective_snr.h"
#include "rate/per.h"
#include "simd/backend.h"
#include "simd/kernels.h"

namespace jmb::rate {
namespace {

using phy::Modulation;

constexpr Modulation kModulations[] = {Modulation::kBpsk, Modulation::kQpsk,
                                       Modulation::kQam16, Modulation::kQam64};

// Reference copy of the rate code as it was before the per-link-state
// evaluator: a fixed 200-step bisection and a bottom-up scan over all
// eight rates, each recomputing its modulation's effective SNR. The
// optimized code must reproduce it bit for bit.
namespace ref {

double snr_for_ber(Modulation m, double target_ber) {
  double lo = 1e-6, hi = 1e9;
  for (int it = 0; it < 200; ++it) {
    const double mid = std::sqrt(lo * hi);
    if (ber(m, mid) > target_ber) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::sqrt(lo * hi);
}

/// The mean BER before the clamp.
double raw_mean_ber(Modulation m, const rvec& subcarrier_snr) {
  double mean_ber = 0.0;
  for (double s : subcarrier_snr) mean_ber += ber(m, std::max(s, 0.0));
  return mean_ber / static_cast<double>(subcarrier_snr.size());
}

/// The bisection's target: the mean BER clamped to [1e-15, 0.499].
double mean_ber_target(Modulation m, const rvec& subcarrier_snr) {
  return std::clamp(raw_mean_ber(m, subcarrier_snr), 1e-15, 0.499);
}

double effective_snr_db(Modulation m, const rvec& subcarrier_snr) {
  return to_db(ref::snr_for_ber(m, ref::mean_ber_target(m, subcarrier_snr)));
}

std::optional<std::size_t> select_rate(const rvec& subcarrier_snr) {
  const auto& rates = phy::rate_set();
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double eff = ref::effective_snr_db(rates[i].modulation,
                                             subcarrier_snr);
    if (eff >= rate_thresholds_db()[i]) best = i;
  }
  return best;
}

double per_at(double eff_db, std::size_t rate_index, std::size_t psdu_bytes) {
  const double margin = eff_db - rate_thresholds_db()[rate_index];
  double per = 0.1 * std::pow(10.0, -margin);
  per *= static_cast<double>(psdu_bytes) / 1500.0;
  return std::clamp(per, 0.0, 1.0);
}

double frame_error_prob(const rvec& subcarrier_snr, std::size_t rate_index,
                        std::size_t psdu_bytes) {
  const phy::Modulation m = phy::rate_set()[rate_index].modulation;
  return per_at(ref::effective_snr_db(m, subcarrier_snr), rate_index,
                psdu_bytes);
}

}  // namespace ref

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string name_of(Modulation m) {
  constexpr const char* kNames[] = {"BPSK", "QPSK", "16-QAM", "64-QAM"};
  return kNames[static_cast<int>(m)];
}

/// The exact effective SNR in dB from a fresh evaluator (no memo).
double fresh_db(Modulation m, const rvec& subcarrier_snr) {
  return EffectiveSnrs(subcarrier_snr).db(m);
}

// Seeded 48-subcarrier link states: Rayleigh fading around a mean drawn
// from -5..35 dB, every third one with a deep 20 dB notch; then flat
// states at each rate threshold and one ulp either side of it.
std::vector<rvec> parity_link_states() {
  std::vector<rvec> out;
  Rng rng(1212);
  for (int v = 0; v < 150; ++v) {
    const double mean = from_db(rng.uniform(-5.0, 35.0));
    rvec snr(phy::kNumDataCarriers);
    for (double& s : snr) s = mean * std::norm(rng.cgaussian());
    if (v % 3 == 0) {
      const std::size_t at = static_cast<std::size_t>(rng.uniform(0.0, 40.0));
      for (std::size_t k = at; k < at + 8; ++k) snr[k] *= from_db(-20.0);
    }
    out.push_back(std::move(snr));
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double thr : rate_thresholds_db()) {
    const double lin = from_db(thr);
    for (double s :
         {std::nextafter(lin, 0.0), lin, std::nextafter(lin, kInf)}) {
      out.emplace_back(phy::kNumDataCarriers, s);
    }
  }
  return out;
}

TEST(Ber, QFunctionKnownValues) {
  EXPECT_NEAR(q_function(0.0), 0.5, 1e-12);
  EXPECT_NEAR(q_function(1.0), 0.158655, 1e-5);
  EXPECT_NEAR(q_function(3.0), 0.0013499, 1e-6);
  EXPECT_NEAR(q_function(-1.0), 1.0 - 0.158655, 1e-5);
}

TEST(Ber, BpskKnownValue) {
  // BPSK at 9.6 dB (Eb/N0) ~ 1e-5.
  EXPECT_NEAR(std::log10(ber(Modulation::kBpsk, from_db(9.6))), -5.0, 0.2);
  EXPECT_THROW((void)ber(Modulation::kBpsk, -1.0), std::invalid_argument);
}

TEST(Ber, MonotoneDecreasingInSnr) {
  for (Modulation m : {Modulation::kBpsk, Modulation::kQpsk,
                       Modulation::kQam16, Modulation::kQam64}) {
    double prev = 1.0;
    for (double db = -5.0; db <= 30.0; db += 1.0) {
      const double b = ber(m, from_db(db));
      EXPECT_LE(b, prev + 1e-15);
      prev = b;
    }
  }
}

TEST(Ber, HigherOrderNeedsMoreSnr) {
  const double snr = from_db(12.0);
  EXPECT_LT(ber(Modulation::kBpsk, snr), ber(Modulation::kQpsk, snr));
  EXPECT_LT(ber(Modulation::kQpsk, snr), ber(Modulation::kQam16, snr));
  EXPECT_LT(ber(Modulation::kQam16, snr), ber(Modulation::kQam64, snr));
}

TEST(Ber, InverseRoundTrip) {
  for (Modulation m : {Modulation::kBpsk, Modulation::kQpsk,
                       Modulation::kQam16, Modulation::kQam64}) {
    for (double target : {1e-2, 1e-3, 1e-5}) {
      const double snr = snr_for_ber(m, target);
      EXPECT_NEAR(std::log10(ber(m, snr)), std::log10(target), 0.02);
    }
  }
  EXPECT_THROW((void)snr_for_ber(Modulation::kBpsk, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)snr_for_ber(Modulation::kBpsk, 0.6),
               std::invalid_argument);
}

TEST(EffSnr, FlatChannelIsIdentity) {
  const rvec flat(48, from_db(15.0));
  for (Modulation m : {Modulation::kBpsk, Modulation::kQpsk,
                       Modulation::kQam16, Modulation::kQam64}) {
    EXPECT_NEAR(fresh_db(m, flat), 15.0, 0.05) << name_of(m);
  }
}

TEST(EffSnr, SelectiveChannelBelowMean) {
  // Frequency selectivity always costs: effective SNR <= mean SNR, and the
  // penalty is worse for dense constellations.
  rvec snrs(48);
  for (std::size_t i = 0; i < 48; ++i) {
    snrs[i] = from_db(i % 2 == 0 ? 20.0 : 10.0);  // mean ~ 17.4 dB
  }
  const double mean_db = to_db((from_db(20.0) + from_db(10.0)) / 2.0);
  const double eff_bpsk = fresh_db(Modulation::kBpsk, snrs);
  const double eff_q64 = fresh_db(Modulation::kQam64, snrs);
  EXPECT_LT(eff_bpsk, mean_db);
  EXPECT_LT(eff_q64, mean_db);
  // For BPSK the deep subcarriers dominate errors harder than for 64-QAM
  // relative to its own scale, but both must stay above the min.
  EXPECT_GT(eff_bpsk, 10.0);
  EXPECT_GT(eff_q64, 10.0);
  EXPECT_THROW((void)fresh_db(Modulation::kBpsk, {}), std::invalid_argument);
}

TEST(EffSnr, ThresholdsStrictlyIncreasing) {
  const rvec& thr = rate_thresholds_db();
  ASSERT_EQ(thr.size(), phy::rate_set().size());
  for (std::size_t i = 1; i < thr.size(); ++i) EXPECT_GT(thr[i], thr[i - 1]);
}

TEST(EffSnr, RateSelectionLadder) {
  // Sweep SNR: the selected rate must be monotone nondecreasing, reach the
  // top rate at high SNR, and be empty below the base threshold.
  EXPECT_FALSE(
      select_rate(rvec(phy::kNumDataCarriers, from_db(0.0))).has_value());
  std::size_t prev = 0;
  for (double db = 4.0; db <= 30.0; db += 0.5) {
    const auto r = select_rate(rvec(phy::kNumDataCarriers, from_db(db)));
    ASSERT_TRUE(r.has_value()) << db;
    EXPECT_GE(*r, prev);
    prev = *r;
  }
  EXPECT_EQ(prev, phy::rate_set().size() - 1);
}

TEST(EffSnr, SelectionMatchesThresholdEdges) {
  const rvec& thr = rate_thresholds_db();
  for (std::size_t i = 0; i < thr.size(); ++i) {
    const auto just_above =
        select_rate(rvec(phy::kNumDataCarriers, from_db(thr[i] + 0.1)));
    ASSERT_TRUE(just_above.has_value());
    EXPECT_GE(*just_above, i);
    const auto just_below =
        select_rate(rvec(phy::kNumDataCarriers, from_db(thr[i] - 0.1)));
    if (i == 0) {
      EXPECT_FALSE(just_below.has_value());
    } else {
      ASSERT_TRUE(just_below.has_value());
      EXPECT_LT(*just_below, i);
    }
  }
}

TEST(Airtime, FrameAirtimeScalesWithLengthAndRate) {
  const double fs = 10e6;
  const phy::Mcs slow{Modulation::kBpsk, phy::CodeRate::kHalf};
  const phy::Mcs fast{Modulation::kQam64, phy::CodeRate::kThreeQuarters};
  const double t_slow = frame_airtime_s(1500, slow, fs);
  const double t_fast = frame_airtime_s(1500, fast, fs);
  EXPECT_GT(t_slow, 8.0 * t_fast);  // 24 vs 216 bits/symbol
  EXPECT_GT(frame_airtime_s(3000, fast, fs), frame_airtime_s(1500, fast, fs));
  // Hand check: 1500B at BPSK 1/2 = ceil(12022/24) = 501 syms + SIGNAL.
  EXPECT_NEAR(t_slow, (320.0 + 80.0 * 502.0) / fs, 1e-12);
}

TEST(Airtime, JointFrameAddsHeaderAndTurnaround) {
  AirtimeParams p;
  const phy::Mcs mcs{Modulation::kQam16, phy::CodeRate::kHalf};
  const double plain = frame_airtime_s(1500, mcs, p.sample_rate_hz);
  const double joint = joint_frame_airtime_s(1500, mcs, p);
  EXPECT_NEAR(joint - plain, p.turnaround_s + 160.0 / p.sample_rate_hz, 1e-12);
}

TEST(Airtime, MeasurementScalesWithApsAndClients) {
  AirtimeParams p;
  const double m22 = measurement_airtime_s(2, 2, p);
  const double m10 = measurement_airtime_s(10, 10, p);
  EXPECT_GT(m10, m22);
  // Amortized over a 250 ms coherence time, even the 10x10 measurement
  // must stay a small fraction of the medium (the paper's overhead story).
  EXPECT_LT(m10 / 0.25, 0.10);
}

TEST(Per, WaterfallShape) {
  // Well above threshold: essentially error-free; below: lost.
  EXPECT_LT(frame_error_prob(rvec(phy::kNumDataCarriers, from_db(30.0)), 0),
            1e-6);
  EXPECT_GT(frame_error_prob(rvec(phy::kNumDataCarriers, from_db(1.0)), 0),
            0.5);
  // At threshold: ~10%.
  const double thr = rate_thresholds_db()[3];
  EXPECT_NEAR(frame_error_prob(rvec(phy::kNumDataCarriers, from_db(thr)), 3),
              0.1, 0.02);
  // Monotone in SNR.
  double prev = 1.0;
  for (double db = 0.0; db < 30.0; db += 0.5) {
    const double per =
        frame_error_prob(rvec(phy::kNumDataCarriers, from_db(db)), 4);
    EXPECT_LE(per, prev + 1e-12);
    prev = per;
  }
}

TEST(Per, LongerFramesFailMore) {
  const rvec flat(phy::kNumDataCarriers, from_db(15.0));
  EXPECT_GT(frame_error_prob(flat, 4, 3000), frame_error_prob(flat, 4, 500));
  EXPECT_THROW((void)frame_error_prob(flat, 99), std::invalid_argument);
}

TEST(RateParity, SnrForBerMatchesFullBisection) {
  for (Modulation m : kModulations) {
    for (double lg = -15.0; lg < std::log10(0.5); lg += 0.05) {
      const double target = std::pow(10.0, lg);
      EXPECT_TRUE(
          same_bits(snr_for_ber(m, target), ref::snr_for_ber(m, target)))
          << name_of(m) << " target " << target;
    }
    for (double target : {1e-15, 0.499}) {
      EXPECT_TRUE(
          same_bits(snr_for_ber(m, target), ref::snr_for_ber(m, target)))
          << name_of(m) << " target " << target;
    }
  }
}

TEST(RateParity, EffectiveSnrMatchesReference) {
  for (const rvec& snr : parity_link_states()) {
    EffectiveSnrs link(snr);
    for (Modulation m : kModulations) {
      const double want = ref::effective_snr_db(m, snr);
      EXPECT_TRUE(same_bits(link.db(m), want));
      EXPECT_TRUE(same_bits(link.db(m), want)) << "cached value drifted";
    }
  }
}

TEST(RateParity, SelectRateMatchesBottomUpScan) {
  for (const rvec& snr : parity_link_states()) {
    const auto want = ref::select_rate(snr);
    EXPECT_EQ(select_rate(snr), want);
    EffectiveSnrs link(snr);
    EXPECT_EQ(select_rate(link), want);
  }
}

TEST(RateParity, FrameErrorProbMatchesReference) {
  for (const rvec& snr : parity_link_states()) {
    // One evaluator shared by the rate pick and every PER, as in the MAC.
    EffectiveSnrs link(snr);
    (void)select_rate(link);
    for (std::size_t ri = 0; ri < phy::rate_set().size(); ++ri) {
      for (std::size_t bytes : {100, 1500, 3000}) {
        const double want = ref::frame_error_prob(snr, ri, bytes);
        EXPECT_TRUE(same_bits(frame_error_prob(snr, ri, bytes), want))
            << "rate " << ri << " bytes " << bytes;
        EXPECT_TRUE(same_bits(frame_error_prob(link, ri, bytes), want))
            << "rate " << ri << " bytes " << bytes;
      }
    }
  }
}

TEST(EffSnr, EvaluatorAssignForgetsCachedValues) {
  EffectiveSnrs link(rvec(48, from_db(30.0)));
  ASSERT_EQ(select_rate(link), phy::rate_set().size() - 1);
  const rvec dead(48, from_db(-5.0));
  link.assign(dead);
  EXPECT_FALSE(select_rate(link).has_value());
  EXPECT_TRUE(same_bits(link.db(Modulation::kQam64),
                        fresh_db(Modulation::kQam64, dead)));
}

TEST(EffSnr, NanSubcarrierIsRejectedWithItsIndex) {
  rvec snr(48, from_db(25.0));
  snr[17] = std::numeric_limits<double>::quiet_NaN();
  for (Modulation m : kModulations) {
    try {
      (void)fresh_db(m, snr);
      ADD_FAILURE() << "no throw for " << name_of(m);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("subcarrier 17"),
                std::string::npos)
          << e.what();
    }
  }
  // Before the guard this read as an unreachable link: no rate, PER 1.
  EXPECT_THROW((void)select_rate(snr), std::invalid_argument);
  EXPECT_THROW((void)frame_error_prob(snr, 0), std::invalid_argument);
}

// ------------------------------------------------------ cross-state memo

rvec faded_state(Rng& rng, double mean_db) {
  rvec snr(phy::kNumDataCarriers);
  for (double& s : snr) s = from_db(mean_db) * std::norm(rng.cgaussian());
  return snr;
}

/// Everything the MAC asks of a state, through `memo` and fresh, compared
/// bit for bit: every modulation's effective SNR, the rate pick, and the
/// PER at every rate.
void expect_memo_matches_fresh(EffectiveSnrMemo& memo, const rvec& snr) {
  EffectiveSnrs link(snr, &memo);
  EXPECT_EQ(select_rate(link), select_rate(snr));
  for (std::size_t ri = 0; ri < phy::rate_set().size(); ++ri) {
    EXPECT_TRUE(same_bits(frame_error_prob(link, ri, 1500),
                          frame_error_prob(snr, ri, 1500)))
        << "rate " << ri;
  }
  for (Modulation m : kModulations) {
    EXPECT_TRUE(same_bits(link.db(m), fresh_db(m, snr)))
        << name_of(m);
  }
}

TEST(EffSnrMemo, MatchesFreshEvaluationBitwise) {
  Rng rng(4242);
  EffectiveSnrMemo memo;
  std::vector<rvec> states;
  for (const double mean_db : {5.0, 15.0, 30.0}) {
    for (int i = 0; i < 20; ++i) states.push_back(faded_state(rng, mean_db));
  }
  // First pass fills the memo, the second reads it back.
  for (int pass = 0; pass < 2; ++pass) {
    for (const rvec& snr : states) expect_memo_matches_fresh(memo, snr);
  }
}

TEST(EffSnrMemo, CollidingStatesEvictAndRehit) {
  Rng rng(77);
  EffectiveSnrMemo memo;
  // Twice as many states as slots: collisions are certain.
  std::vector<rvec> states;
  for (std::size_t i = 0; i < 2 * EffectiveSnrMemo::kSlots; ++i) {
    states.push_back(faded_state(rng, 12.0 + static_cast<double>(i % 7)));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (const rvec& snr : states) {
      EffectiveSnrs link(snr, &memo);
      EXPECT_EQ(select_rate(link), select_rate(snr));
      EXPECT_TRUE(same_bits(link.db(Modulation::kQam16),
                            fresh_db(Modulation::kQam16, snr)));
    }
  }
  // Two states sharing one slot, alternated: each evicts the other.
  rvec twin = faded_state(rng, 12.0);
  const std::size_t slot0 = EffectiveSnrMemo::slot(states[0]);
  while (EffectiveSnrMemo::slot(twin) != slot0) twin = faded_state(rng, 12.0);
  for (int round = 0; round < 3; ++round) {
    expect_memo_matches_fresh(memo, states[0]);
    expect_memo_matches_fresh(memo, twin);
  }
  // And two that share a slot and differ only in the last subcarrier, so
  // a hit must compare every element.
  rvec head = faded_state(rng, 8.0);
  head.back() = from_db(5.0);
  rvec tail = head;
  const std::size_t head_slot = EffectiveSnrMemo::slot(head);
  for (int i = 0; i == 0 || EffectiveSnrMemo::slot(tail) != head_slot; ++i) {
    tail.back() = from_db(5.0) * (2.0 + 1e-6 * i);
  }
  for (int round = 0; round < 3; ++round) {
    expect_memo_matches_fresh(memo, head);
    expect_memo_matches_fresh(memo, tail);
  }
}

TEST(EffSnrMemo, SignedZerosAreDistinctKeysWithOneValue) {
  rvec pos(phy::kNumDataCarriers, from_db(20.0));
  pos[5] = 0.0;
  rvec neg = pos;
  neg[5] = -0.0;
  EXPECT_NE(EffectiveSnrMemo::slot(pos), EffectiveSnrMemo::slot(neg));
  EffectiveSnrMemo memo;
  for (int round = 0; round < 2; ++round) {
    expect_memo_matches_fresh(memo, pos);
    expect_memo_matches_fresh(memo, neg);
  }
  for (Modulation m : kModulations) {
    EXPECT_TRUE(same_bits(EffectiveSnrs(pos, &memo).db(m),
                          EffectiveSnrs(neg, &memo).db(m)));
  }
}

TEST(EffSnrMemo, NanStateThrowsWithoutPoisoningItsSlot) {
  Rng rng(9);
  rvec nan_state = faded_state(rng, 20.0);
  nan_state[31] = std::numeric_limits<double>::quiet_NaN();
  // A good state in the NaN state's slot, and the state that follows it.
  rvec good = faded_state(rng, 20.0);
  const std::size_t nan_slot = EffectiveSnrMemo::slot(nan_state);
  while (EffectiveSnrMemo::slot(good) != nan_slot) {
    good = faded_state(rng, 20.0);
  }
  const rvec next = faded_state(rng, 8.0);

  EffectiveSnrMemo memo;
  expect_memo_matches_fresh(memo, good);
  for (int round = 0; round < 2; ++round) {
    EffectiveSnrs bad(nan_state, &memo);
    EXPECT_THROW((void)select_rate(bad), std::invalid_argument);
    for (Modulation m : kModulations) {
      EXPECT_THROW((void)bad.db(m), std::invalid_argument);
    }
    expect_memo_matches_fresh(memo, good);
  }
  EXPECT_THROW((void)EffectiveSnrs(nan_state, &memo).db(Modulation::kBpsk),
               std::invalid_argument);
  expect_memo_matches_fresh(memo, next);
}

TEST(EffSnrMemo, EmptyStateStillThrows) {
  EffectiveSnrMemo memo;
  EffectiveSnrs empty(rvec{}, &memo);
  EXPECT_THROW((void)select_rate(empty), std::invalid_argument);
  EXPECT_THROW((void)frame_error_prob(empty, 0), std::invalid_argument);
  EXPECT_THROW((void)empty.db(Modulation::kQam64), std::invalid_argument);
}

TEST(Airtime, MeasurementRejectsFeedbackRatePastRateSet) {
  AirtimeParams p;
  p.feedback_rate_index = phy::rate_set().size();
  EXPECT_THROW((void)measurement_airtime_s(2, 2, p), std::invalid_argument);
  p.feedback_rate_index = 1000000;
  EXPECT_THROW((void)measurement_airtime_s(2, 2, p), std::invalid_argument);
}

TEST(Ber, NanTargetIsRejected) {
  EXPECT_THROW(
      (void)snr_for_ber(Modulation::kBpsk,
                        std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
}

TEST(Ber, SnrEstimateTracksTheBisection) {
  for (Modulation m : kModulations) {
    for (double lg = -15.0; lg < std::log10(0.5); lg += 0.01) {
      const double target = std::pow(10.0, lg);
      const double exact = snr_for_ber(m, target);
      if (exact < 1e-5) continue;  // the bisection's clamp, not a root
      EXPECT_NEAR(snr_for_ber_estimate(m, target) / exact, 1.0, 1e-8)
          << name_of(m) << " target " << target;
    }
  }
  // No SNR >= 0 reaches half the curve's scale or more.
  EXPECT_TRUE(std::isnan(snr_for_ber_estimate(Modulation::kBpsk, 0.5)));
  EXPECT_TRUE(std::isnan(snr_for_ber_estimate(Modulation::kQam16, 0.375)));
  EXPECT_TRUE(std::isnan(snr_for_ber_estimate(Modulation::kQam64, 0.0)));
  EXPECT_TRUE(std::isnan(snr_for_ber_estimate(
      Modulation::kQpsk, std::numeric_limits<double>::quiet_NaN())));
}

// ------------------------------------------ certified brackets vs ref::

/// One state's reference effective SNRs, each modulation's computed by
/// ref::effective_snr_db on first use.
class RefDbs {
 public:
  explicit RefDbs(const rvec& snr) : snr_(&snr) {}

  double operator()(Modulation m) {
    std::optional<double>& v = db_[static_cast<std::size_t>(m)];
    if (!v) v = ref::effective_snr_db(m, *snr_);
    return *v;
  }

  /// ref::select_rate's answer: the highest rate whose threshold its
  /// modulation's reference effective SNR meets. Searched top down, so a
  /// state at good SNR costs one reference evaluation, not eight.
  std::optional<std::size_t> select_rate() {
    const auto& rates = phy::rate_set();
    for (std::size_t i = rates.size(); i-- > 0;) {
      if ((*this)(rates[i].modulation) >= rate_thresholds_db()[i]) return i;
    }
    return std::nullopt;
  }

 private:
  const rvec* snr_;
  std::array<std::optional<double>, kNumModulations> db_;
};

/// Counts failed checks and keeps the first few descriptions, so that a
/// broken build reports a handful of cases instead of millions.
class Mismatches {
 public:
  template <class Describe>
  void check(bool ok, Describe&& describe) {
    if (ok) return;
    if (count_++ < 5) log_ += describe() + "\n";
  }
  [[nodiscard]] int count() const { return count_; }
  [[nodiscard]] const std::string& log() const { return log_; }

 private:
  int count_ = 0;
  std::string log_;
};

std::string describe(const rvec& snr) {
  double lo = snr.empty() ? 0.0 : snr[0], hi = lo;
  for (double s : snr) lo = std::min(lo, s), hi = std::max(hi, s);
  return std::to_string(snr.size()) + " subcarriers in [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "]";
}

/// The bracket `link` holds for `m` contains the reference value.
void check_bracket(EffectiveSnrs& link, RefDbs& ref, Modulation m,
                   Mismatches& out) {
  const EffectiveSnrBound& b = link.bound(m);
  const double want = ref(m);
  out.check(b.lo_db <= want && want <= b.hi_db, [&] {
    return "bracket [" + std::to_string(b.lo_db) + ", " +
           std::to_string(b.hi_db) + "] misses " + std::to_string(want) +
           " (" + name_of(m) + ")";
  });
}

/// The reference PER of rate `ri` at `bytes`.
double ref_per(RefDbs& ref, std::size_t ri, std::size_t bytes) {
  return ref::per_at(ref(phy::rate_set()[ri].modulation), ri, bytes);
}

/// rate::delivered(draw, ri, bytes, u) == (u >= per) for each u in turn,
/// all on `draw`.
void check_draws(EffectiveSnrs& draw, double per, std::size_t ri,
                 std::size_t bytes, std::initializer_list<double> us,
                 Mismatches& out) {
  for (const double u : us) {
    out.check(delivered(draw, ri, bytes, u) == (u >= per), [&] {
      return "delivered(rate " + std::to_string(ri) + ", " +
             std::to_string(bytes) + " B, u " + std::to_string(u) +
             ") disagrees with PER " + std::to_string(per);
    });
  }
}

/// Everything the MAC asks of `snr`, fresh and through `memo` (twice, the
/// second a hit), against the reference: the rate pick, every
/// modulation's bracket, and delivery at every rate and frame size.
void check_state_fully(const rvec& snr, EffectiveSnrMemo& memo, Rng& rng,
                       Mismatches& out) {
  RefDbs ref(snr);
  const std::optional<std::size_t> want = ref::select_rate(snr);
  out.check(select_rate(snr) == want,
            [&] { return "select_rate(rvec) on " + describe(snr); });
  for (EffectiveSnrMemo* use : {static_cast<EffectiveSnrMemo*>(nullptr),
                                &memo, &memo}) {
    EffectiveSnrs link(snr, use);
    out.check(select_rate(link) == want,
              [&] { return "select_rate(link) on " + describe(snr); });
    for (Modulation m : kModulations) check_bracket(link, ref, m, out);
    // A random u, u at the PER and one step either side of it, each on a
    // copy of the priced link, so each meets the bracket and not a value
    // an earlier draw settled.
    for (std::size_t ri = 0; ri < phy::rate_set().size(); ++ri) {
      for (std::size_t bytes : {100, 1500, 3000}) {
        const double per = ref_per(ref, ri, bytes);
        for (const double u : {rng.uniform(), std::nextafter(per, 0.0), per,
                               std::nextafter(per, 2.0)}) {
          EffectiveSnrs draw = link;
          check_draws(draw, per, ri, bytes, {u}, out);
        }
      }
    }
  }
}

// A Rayleigh-faded 48-subcarrier state around a mean drawn from -5..40 dB;
// every third has a deep 20 dB notch over eight subcarriers.
rvec random_faded_state(Rng& rng, int v) {
  const double mean = from_db(rng.uniform(-5.0, 40.0));
  rvec snr(phy::kNumDataCarriers);
  for (double& s : snr) s = mean * std::norm(rng.cgaussian());
  if (v % 3 == 0) {
    const std::size_t at = static_cast<std::size_t>(rng.uniform(0.0, 40.0));
    for (std::size_t k = at; k < at + 8; ++k) snr[k] *= from_db(-20.0);
  }
  return snr;
}

/// `n_states` random faded states from `seed`, through one memo and none.
/// Each state checks one modulation (cycled), so it pays for one
/// reference bisection; every eighth also checks the rate pick, which may
/// need the reference at several modulations.
void check_random_states(std::uint64_t seed, int n_states, Mismatches& out) {
  constexpr std::size_t kBytes[] = {100, 1500, 3000};
  Rng rng(seed);
  EffectiveSnrMemo memo;
  // Memo states seen earlier, revisited later: hits, or misses after a
  // colliding state evicted them.
  struct Seen {
    rvec snr;
    Modulation m;
    double db;
  };
  std::vector<Seen> seen;
  for (int v = 0; v < n_states; ++v) {
    const rvec snr = random_faded_state(rng, v);
    RefDbs ref(snr);
    EffectiveSnrMemo* const use = (v / 4) % 2 ? &memo : nullptr;
    EffectiveSnrs link(snr, use);
    if (v % 8 == 0) {
      out.check(select_rate(link) == ref.select_rate(),
                [&] { return "select_rate on " + describe(snr); });
    }
    const std::size_t mi = static_cast<std::size_t>(v % 4);
    const Modulation m = kModulations[mi];
    check_bracket(link, ref, m, out);
    // One random draw on the link, then the PER's edges on one copy: the
    // first edge meets the bracket (below or above the PER, alternately),
    // the rest the value it settled.
    const std::size_t ri = 2 * mi + (v / 8) % 2;
    const std::size_t bytes = kBytes[(v / 16) % 3];
    const double per = ref_per(ref, ri, bytes);
    check_draws(link, per, ri, bytes, {rng.uniform()}, out);
    EffectiveSnrs draw = link;
    const double below = std::nextafter(per, 0.0);
    const double above = std::nextafter(per, 2.0);
    if ((v / 2) % 2) {
      check_draws(draw, per, ri, bytes, {below, per, above}, out);
    } else {
      check_draws(draw, per, ri, bytes, {above, per, below}, out);
    }
    if (!use) continue;
    EffectiveSnrs again(snr, &memo);
    check_bracket(again, ref, m, out);
    const Seen now{snr, m, ref(m)};
    if (seen.size() < 512) {
      seen.push_back(now);
      continue;
    }
    Seen& old = seen[static_cast<std::size_t>(v) % seen.size()];
    EffectiveSnrs back(old.snr, &memo);
    const EffectiveSnrBound& b = back.bound(old.m);
    out.check(b.lo_db <= old.db && old.db <= b.hi_db,
              [&] { return "revisit on " + describe(old.snr); });
    old = now;
  }
}

TEST(RateParity, BracketsDecideAsTheBisectionOnRandomStates) {
  // 2·10⁵ states in four independent chunks, one thread each: a 200-step
  // reference bisection costs ~15 us.
  constexpr int kChunks = 4;
  std::array<Mismatches, kChunks> out;
  std::vector<std::thread> workers;
  for (int c = 0; c < kChunks; ++c) {
    workers.emplace_back(check_random_states, 2121 + c, 50000,
                         std::ref(out[c]));
  }
  for (std::thread& w : workers) w.join();
  for (const Mismatches& o : out) EXPECT_EQ(o.count(), 0) << o.log();
}

/// Flat states whose reference effective SNR at each rate's modulation
/// lies within 1e-12 dB of that rate's threshold: the two ends of a
/// bisection on the flat SNR, and one ulp beyond each.
std::vector<rvec> threshold_flat_states() {
  std::vector<rvec> out;
  for (std::size_t i = 0; i < phy::rate_set().size(); ++i) {
    const Modulation m = phy::rate_set()[i].modulation;
    const double thr = rate_thresholds_db()[i];
    const auto eff = [&](double s) {
      return ref::effective_snr_db(m, rvec(phy::kNumDataCarriers, s));
    };
    double lo = from_db(thr - 1.0), hi = from_db(thr + 1.0);
    for (;;) {
      const double mid = 0.5 * (lo + hi);
      if (mid <= lo || mid >= hi) break;
      (eff(mid) >= thr ? hi : lo) = mid;
    }
    EXPECT_NEAR(eff(lo), thr, 1e-12) << "rate " << i;
    EXPECT_NEAR(eff(hi), thr, 1e-12) << "rate " << i;
    EXPECT_LT(eff(lo), thr) << "rate " << i;
    EXPECT_GE(eff(hi), thr) << "rate " << i;
    for (double s : {std::nextafter(lo, 0.0), lo, hi,
                     std::nextafter(hi, 2.0 * hi)}) {
      out.emplace_back(phy::kNumDataCarriers, s);
    }
  }
  return out;
}

TEST(RateParity, FlatStatesAtEveryThresholdDecideExactly) {
  Rng rng(31);
  EffectiveSnrMemo memo;
  Mismatches out;
  const std::vector<rvec> states = threshold_flat_states();
  for (int pass = 0; pass < 2; ++pass) {
    for (const rvec& snr : states) check_state_fully(snr, memo, rng, out);
  }
  // The same states forced through one slot: each evicts the last.
  EffectiveSnrMemo tiny;
  for (const rvec& snr : states) {
    RefDbs ref(snr);
    for (Modulation m : kModulations) {
      EffectiveSnrs link(snr, &tiny);
      check_bracket(link, ref, m, out);
    }
  }
  EXPECT_EQ(out.count(), 0) << out.log();
}

/// Outage and out-of-range states: all zero, negative, ±∞, 1e-300 and
/// 1e300 entries, and the partial outages whose mean BER sits just under
/// half the curve's scale.
std::vector<rvec> extreme_states() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::size_t n = phy::kNumDataCarriers;
  std::vector<rvec> out{
      rvec(n, 0.0),   rvec(n, -0.0),  rvec(n, -1.0),   rvec(n, -kInf),
      rvec(n, kInf),  rvec(n, 1e-300), rvec(n, 1e300),
      rvec(n, std::numeric_limits<double>::denorm_min()),
      rvec(n, std::numeric_limits<double>::max())};
  for (const double db : {-40.0, -35.0, -30.0, -20.0}) {
    out.emplace_back(n, from_db(db));
  }
  rvec mixed(n, 1e300);
  for (std::size_t k = 0; k < n; k += 2) mixed[k] = k % 4 ? -kInf : 1e-300;
  out.push_back(mixed);
  for (std::size_t zeros : {1, 24, 46, 47}) {
    rvec partial(n, kInf);
    std::fill_n(partial.begin(), zeros, 0.0);
    out.push_back(partial);
  }
  return out;
}

TEST(RateParity, ExtremeStatesDecideExactly) {
  Rng rng(47);
  EffectiveSnrMemo memo;
  Mismatches out;
  for (int pass = 0; pass < 2; ++pass) {
    for (const rvec& snr : extreme_states()) {
      check_state_fully(snr, memo, rng, out);
    }
  }
  EXPECT_EQ(out.count(), 0) << out.log();
}

TEST(RateParity, NanAndEmptyStatesThrowEverywhere) {
  rvec nan_state(phy::kNumDataCarriers, from_db(20.0));
  nan_state[9] = std::numeric_limits<double>::quiet_NaN();
  const rvec good(phy::kNumDataCarriers, from_db(20.0));
  EffectiveSnrMemo memo;
  for (const rvec& bad : {nan_state, rvec{}}) {
    for (EffectiveSnrMemo* use :
         {static_cast<EffectiveSnrMemo*>(nullptr), &memo}) {
      for (Modulation m : kModulations) {
        EXPECT_THROW((void)effective_snr_bound(m, bad), std::invalid_argument);
        EffectiveSnrs link(bad, use);
        EXPECT_THROW((void)link.bound(m), std::invalid_argument);
        EXPECT_THROW((void)link.meets(m, 10.0), std::invalid_argument);
        EXPECT_THROW((void)link.db(m), std::invalid_argument);
      }
      EffectiveSnrs link(bad, use);
      EXPECT_THROW((void)select_rate(link), std::invalid_argument);
      EXPECT_THROW((void)delivered(link, 0, 1500, 0.5),
                   std::invalid_argument);
    }
  }
  EffectiveSnrs link(good, &memo);
  EXPECT_THROW((void)delivered(link, phy::rate_set().size(), 1500, 0.5),
               std::invalid_argument);
  EXPECT_EQ(select_rate(link), ref::select_rate(good));
}

TEST(RateParity, CertificatesKeepTheirGuardBand) {
  // Every bracket the builder certifies keeps the documented margin at
  // its ends against the exact mean BER t (the reference loop's, not the
  // interval it was certified from): ber(lo) > t(1 + ε/2) and ber(hi) <
  // t(1 − ε/2) (half ε absorbs the dB round trip and the interval's
  // width). Outage states, where the curve is nearly flat, are where a
  // smaller guard would certify.
  std::vector<rvec> states = extreme_states();
  for (rvec& s : threshold_flat_states()) states.push_back(std::move(s));
  Rng rng(5);
  for (int v = 0; v < 2000; ++v) states.push_back(random_faded_state(rng, v));
  Mismatches out;
  int certified = 0;
  for (const rvec& snr : states) {
    for (Modulation m : kModulations) {
      const EffectiveSnrBound b = effective_snr_bound(m, snr);
      if (b.exact) continue;
      ++certified;
      const double t = ref::mean_ber_target(m, snr);
      const double lo = from_db(b.lo_db + kBoundDbGuard);
      const double hi = from_db(b.hi_db - kBoundDbGuard);
      out.check(lo > 1e-6 && hi < 1e9 && hi / lo < 1.0 + 3 * kBoundHalfWidth,
                [&] { return "bracket out of range on " + describe(snr); });
      out.check(ber(m, lo) > t * (1.0 + kBoundBerGuard / 2), [&] {
        return std::string("low end without margin, ") + name_of(m) +
               " t " + std::to_string(t);
      });
      out.check(ber(m, hi) < t * (1.0 - kBoundBerGuard / 2), [&] {
        return std::string("high end without margin, ") + name_of(m) +
               " t " + std::to_string(t);
      });
    }
  }
  EXPECT_GT(certified, 7000);
  EXPECT_EQ(out.count(), 0) << out.log();
}

TEST(RateParity, GuardConstantsCoverTheRoundingBound) {
  // DESIGN.md §7's inequality. A crossing at target t >= 1e-15 on a
  // curve c·Q(√(k·snr)) with c <= 1 solves erfc(y) = 2t/c >= 2e-15, so its
  // erfc argument y is below 8.1.
  constexpr double ulp = std::numeric_limits<double>::epsilon();
  const double y = 8.1;
  EXPECT_LT(std::erfc(y), 2e-15);
  // A ≤ 3-ulp argument error moves erfc by ≤ 2y²·3 ulp; glibc's erfc and
  // the two constant multiplies add a few ulp more.
  const double ber_error = 2.0 * y * y * 3.0 * ulp + 8.0 * ulp;
  EXPECT_GE(kBoundBerGuard, 1e6 * ber_error);
  // to_db: a few ulp of log10 on values up to 90 dB.
  EXPECT_GE(kBoundDbGuard, 1e4 * 90.0 * 4.0 * ulp);
  // PER: pow's < 1 ulp and three roundings.
  EXPECT_GE(kBoundPerGuard, 1e4 * 8.0 * ulp);
  // The certificate needs the estimate well inside the bracket.
  EXPECT_GE(kBoundHalfWidth, 1e3 * 2.3e-9);
}

TEST(EffSnrBound, PoolStatesRarelyNeedTheBisection) {
  // Pool-like states: post-beamforming SINRs of well-conditioned N x N
  // channels (N = 2..10) precoded with ZF, over the three Section 11 SNR
  // bands. A guard too tight would keep the bits but lose the fast path.
  constexpr double kBands[3][2] = {{18.0, 28.0}, {12.0, 18.0}, {6.0, 12.0}};
  Rng rng(808);
  std::size_t states = 0, exact = 0;
  while (states < 10000) {
    for (const auto& band : kBands) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(2, 10));
      const auto gains = chan::diverse_link_gains(n, n, band[0], band[1], rng);
      const core::ChannelMatrixSet h =
          core::well_conditioned_channel_set(gains, rng);
      const auto precoder = core::Precoder::build(h);
      ASSERT_TRUE(precoder.has_value());
      for (int draw = 0; draw < 16; ++draw) {
        for (const rvec& snr : core::jmb_subcarrier_sinrs(
                 h, *precoder, core::kCalibratedPhaseSigma, 1.0, rng)) {
          bool any = false;
          for (Modulation m : kModulations) {
            any = effective_snr_bound(m, snr).exact || any;
          }
          ++states;
          exact += any ? 1 : 0;
        }
      }
    }
  }
  EXPECT_LT(exact * 1000, states) << exact << " of " << states;
}

// ------------------------------------------------- the interval mean BER

/// The erfc table's output at y = √x (x ≥ 0), through the active kernel.
double table_erfc_sqrt(double x) {
  double out = -1.0;
  simd::active_kernels().erfc_sqrt(&x, 1.0, erfc_table(), 1, &out);
  return out;
}

TEST(ErfcApprox, RemainderBoundsAreFarInsideTheTolerance) {
  // Recomputed here, independently of the table builder and more loosely:
  // on piece j = [a, b] about its centre, the degree-8 Taylor remainder
  // relative to erfc is at most
  //   (2/√π)·|H_8|max·e^{−a²}/erfc(b) · (h/2)⁹/9!,
  // with H_8(ξ) = 256ξ⁸ − 3584ξ⁶ + 13440ξ⁴ − 13440ξ² + 1680 bounded by its
  // absolute coefficients at b.
  using Ld = long double;
  const Ld h = 1.0L / simd::kErfcSegmentsPerUnit;
  Ld worst = 0;
  for (std::size_t j = 0; j < simd::kErfcSegments; ++j) {
    const Ld a = static_cast<Ld>(j) * h, b = a + h;
    const Ld b2 = b * b;
    const Ld hermite =
        (((256 * b2 + 3584) * b2 + 13440) * b2 + 13440) * b2 + 1680;
    Ld taylor = 1;
    for (int n = 1; n <= 9; ++n) taylor *= h / 2 / n;
    const Ld bound = 2 / std::sqrt(3.14159265358979323846264338327950288L) *
                     hermite * std::exp(-a * a) / std::erfc(b) * taylor;
    worst = std::max(worst, bound);
  }
  RecordProperty("worst_remainder_bound",
                 ::testing::PrintToString(static_cast<double>(worst)));
  EXPECT_LT(worst, 1e-10L);
  EXPECT_GE(kMeanBerTolerance, 100.0 * static_cast<double>(worst));
  // α covers a dropped subcarrier at y ≥ 8.5 on any curve (scale ≤ 1).
  EXPECT_GE(kMeanBerFloor, 0.5 * std::erfc(simd::kErfcEnd) * 1.01);
  // Horner's rounding budget: Σ|bₙ|2⁻ⁿ over erfc at the piece's right end
  // stays below 3 on every piece.
  const double* table = erfc_table();
  for (std::size_t j = 0; j < simd::kErfcSegments; ++j) {
    double sum = 0.0, half = 1.0;
    for (std::size_t d = 0; d <= simd::kErfcDegree; ++d, half *= 0.5) {
      sum += std::fabs(table[simd::kErfcStride * j + d]) * half;
    }
    EXPECT_LT(sum / std::erfc(static_cast<double>(j + 1) /
                              simd::kErfcSegmentsPerUnit),
              3.0)
        << "piece " << j;
  }
}

TEST(ErfcApprox, DenseGridTracksGlibcErfc) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double per_unit = simd::kErfcSegmentsPerUnit;
  std::vector<double> ys;
  for (double y = 0.0; y < 8.6; y += 1.0 / (64.0 * per_unit)) ys.push_back(y);
  for (std::size_t j = 0; j <= simd::kErfcSegments; ++j) {
    const double end = static_cast<double>(j) / per_unit;
    ys.insert(ys.end(), {std::nextafter(end, 0.0), end,
                         std::nextafter(end, kInf)});
  }
  double worst = 0.0;
  for (const double y : ys) {
    // The kernel sees x = y², so compare at the y it computes.
    const double x = y * y;
    const double yk = std::sqrt(x);
    const double got = table_erfc_sqrt(x);
    if (yk >= simd::kErfcEnd) {
      EXPECT_EQ(got, 0.0) << "y " << yk;
      EXPECT_LE(0.5 * std::erfc(yk), kMeanBerFloor) << "y " << yk;
      continue;
    }
    const double want = std::erfc(yk);
    worst = std::max(worst, std::fabs(got - want) / want);
  }
  RecordProperty("worst_relative_error", ::testing::PrintToString(worst));
  EXPECT_LT(worst, kErfcTableRemainder) << "worst relative error " << worst;
  EXPECT_LT(worst, kMeanBerTolerance / 100.0);
  // Just under 8.5 is the last piece, at 8.5 the zero tail.
  const double under = std::nextafter(simd::kErfcEnd, 0.0);
  const double y_under = std::sqrt(under * under);
  EXPECT_NEAR(table_erfc_sqrt(under * under) / std::erfc(y_under), 1.0,
              kErfcTableRemainder);
  EXPECT_EQ(table_erfc_sqrt(simd::kErfcEnd * simd::kErfcEnd), 0.0);
  // −0, 0, a subnormal and a negative SNR all sit at erfc(0) = 1 (or a
  // hair below it); ∞ at erfc(∞) = 0.
  for (const double x : {-0.0, 0.0, -1.0, -kInf,
                         std::numeric_limits<double>::denorm_min()}) {
    EXPECT_NEAR(table_erfc_sqrt(x), 1.0, 1e-14) << x;
  }
  EXPECT_EQ(table_erfc_sqrt(kInf), 0.0);
}

/// States for the interval tests: random faded ones, the flat threshold
/// and extreme ones, and states whose every subcarrier sits at or just
/// past the table's end, where t̃ is 0 but the exact mean is not.
std::vector<rvec> interval_states() {
  std::vector<rvec> states = extreme_states();
  for (rvec& s : threshold_flat_states()) states.push_back(std::move(s));
  Rng rng(1717);
  for (int v = 0; v < 3000; ++v) states.push_back(random_faded_state(rng, v));
  constexpr std::size_t n = phy::kNumDataCarriers;
  for (Modulation m : kModulations) {
    // y = √(s·k) = 8.5·(1 + f): SNR 8.5²(1 + f)²·2·per_snr.
    const double per_snr = ber_curve(m).per_snr;
    for (const double f : {0.0, 1e-12, 1e-4, 1e-3, 0.02}) {
      const double s = 72.25 * (1.0 + f) * (1.0 + f) * 2.0 * per_snr;
      states.emplace_back(n, s);
      rvec mixed(n, std::numeric_limits<double>::infinity());
      mixed[7] = s;
      states.push_back(mixed);
    }
  }
  return states;
}

TEST(MeanBer, IntervalContainsTheExactMean) {
  Mismatches out;
  std::size_t positive_past_the_table = 0;
  for (const rvec& snr : interval_states()) {
    for (Modulation m : kModulations) {
      const double t = ref::raw_mean_ber(m, snr);
      const MeanBerInterval iv = mean_ber_interval(m, snr);
      out.check(iv.lo <= t && t <= iv.hi, [&] {
        return std::string(name_of(m)) + " mean " + std::to_string(t) +
               " outside [" + std::to_string(iv.lo) + ", " +
               std::to_string(iv.hi) + "] on " + describe(snr);
      });
      // Tight: the interval is t̃(1 ± η) ± α around its centre.
      const double mid = 0.5 * (iv.lo + iv.hi);
      out.check(iv.hi - iv.lo <= 2.0 * kMeanBerTolerance * mid * (1 + 1e-6) +
                                     2.0 * kMeanBerFloor * (1 + 1e-6),
                [&] { return "interval too wide on " + describe(snr); });
      if (t > 0.0 && iv.hi < 2.0 * kMeanBerFloor) ++positive_past_the_table;
    }
  }
  EXPECT_EQ(out.count(), 0) << out.log();
  // The states past the table's end did reach the α-only case.
  EXPECT_GT(positive_past_the_table, 0u);
}

TEST(MeanBer, IntervalIsTheSameOnEveryBackend) {
  Rng rng(2323);
  std::vector<rvec> states = interval_states();
  // Lengths that leave a tail on every backend and run past one chunk.
  for (const std::size_t n : {1u, 3u, 9u, 52u, 64u, 65u, 200u}) {
    rvec snr(n);
    for (double& s : snr) s = from_db(rng.uniform(-10.0, 30.0));
    states.push_back(std::move(snr));
  }
  std::vector<MeanBerInterval> want;
  ASSERT_TRUE(simd::set_backend(simd::Backend::kScalar));
  for (const rvec& snr : states) {
    for (Modulation m : kModulations) want.push_back(mean_ber_interval(m, snr));
  }
  for (const simd::Backend b :
       {simd::Backend::kSse2, simd::Backend::kAvx2, simd::Backend::kAvx512,
        simd::Backend::kNeon}) {
    if (!simd::set_backend(b)) continue;
    std::size_t i = 0;
    for (const rvec& snr : states) {
      for (Modulation m : kModulations) {
        const MeanBerInterval got = mean_ber_interval(m, snr);
        EXPECT_TRUE(same_bits(got.lo, want[i].lo) &&
                    same_bits(got.hi, want[i].hi))
            << simd::backend_name(b) << " " << describe(snr);
        ++i;
      }
    }
  }
  simd::reset_backend_cache();
}

TEST(MeanBer, NanAndEmptyStatesThrow) {
  rvec nan_state(phy::kNumDataCarriers, from_db(20.0));
  nan_state[40] = std::numeric_limits<double>::quiet_NaN();
  for (Modulation m : kModulations) {
    EXPECT_THROW((void)mean_ber_interval(m, nan_state), std::invalid_argument);
    EXPECT_THROW((void)mean_ber_interval(m, rvec{}), std::invalid_argument);
  }
  try {
    (void)mean_ber_interval(Modulation::kQam16, nan_state);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("subcarrier 40"), std::string::npos);
  }
}

TEST(EffSnrMemo, PoolStatesRarelyShareASlot) {
  // A 10-AP run draws its link states from a 16-entry pool: 160 distinct
  // states. Count those that share a memo slot with another of the same
  // pool, over 50 pools.
  Rng rng(4096);
  std::size_t states = 0, shared = 0;
  for (int pool = 0; pool < 50; ++pool) {
    const auto gains = chan::diverse_link_gains(10, 10, 12.0, 28.0, rng);
    const core::ChannelMatrixSet h =
        core::well_conditioned_channel_set(gains, rng);
    const auto precoder = core::Precoder::build(h);
    ASSERT_TRUE(precoder.has_value());
    const core::SinrPool sinrs(h, *precoder, 16, rng);
    std::vector<std::size_t> slots;
    for (std::size_t e = 0; e < sinrs.size(); ++e) {
      for (const rvec& snr : sinrs.entry(e)) {
        slots.push_back(EffectiveSnrMemo::slot(snr));
      }
    }
    std::vector<std::size_t> sorted = slots;
    std::sort(sorted.begin(), sorted.end());
    for (const std::size_t s : slots) {
      const auto [lo, hi] = std::equal_range(sorted.begin(), sorted.end(), s);
      shared += hi - lo > 1 ? 1 : 0;
    }
    states += slots.size();
  }
  // A uniform hash would put 1 − (1 − 1/4096)^159 ≈ 3.8% in shared slots.
  const double share =
      static_cast<double>(shared) / static_cast<double>(states);
  RecordProperty("shared_slot_share", std::to_string(share));
  EXPECT_LT(share, 0.08) << shared << " of " << states;
}

}  // namespace
}  // namespace jmb::rate
