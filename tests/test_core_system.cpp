// Integration tests for the sample-level JMB system: the interleaved
// channel-measurement protocol, distributed phase synchronization, joint
// zero-forcing transmissions, diversity mode, nulling (INR), and the
// compat / decoupled measurement schemes, with golden digests and input
// validation for the latter.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/compat11n.h"
#include "core/decoupled.h"
#include "core/measurement.h"
#include "dsp/stats.h"
#include "engine/system.h"
#include "golden_digest.h"
#include "phy/workspace.h"
#include "rate/effective_snr.h"

namespace jmb::core {
namespace {

std::vector<std::vector<double>> flat_gains(std::size_t n_clients,
                                            std::size_t n_aps, double snr_db) {
  return std::vector<std::vector<double>>(
      n_clients,
      std::vector<double>(n_aps, JmbSystem::gain_for_snr_db(snr_db, 1.0)));
}

phy::ByteVec random_psdu(Rng& rng, std::size_t n) {
  phy::ByteVec p(n);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

TEST(MeasurementSchedule, SlotLayout) {
  const MeasurementSchedule s{4, 3};
  EXPECT_EQ(s.cfo_block_offset(0), phy::kPreambleLen);
  EXPECT_EQ(s.cfo_block_offset(3), phy::kPreambleLen + 3 * 160);
  const std::size_t chan_base = phy::kPreambleLen + 4 * 160;
  EXPECT_EQ(s.chan_symbol_offset(0, 0), chan_base);
  EXPECT_EQ(s.chan_symbol_offset(2, 1), chan_base + (4 + 2) * 80);
  EXPECT_EQ(s.frame_len(), chan_base + 12 * 80);
  EXPECT_THROW((void)s.cfo_block_offset(4), std::invalid_argument);
  EXPECT_THROW((void)s.chan_symbol_offset(0, 3), std::invalid_argument);
}

TEST(MeasurementSchedule, WaveformsDoNotOverlap) {
  const MeasurementSchedule s{3, 2};
  std::vector<cvec> waves;
  for (std::size_t ap = 0; ap < 3; ++ap) waves.push_back(s.ap_waveform(ap));
  for (std::size_t i = 0; i < waves[0].size(); ++i) {
    int active = 0;
    for (const auto& w : waves) {
      if (std::abs(w[i]) > 1e-12) ++active;
    }
    EXPECT_LE(active, 1) << "overlap at sample " << i;
  }
  // The lead's preamble occupies the frame start.
  EXPECT_GT(std::abs(waves[0][10]), 0.0);
  EXPECT_EQ(std::abs(waves[1][10]), 0.0);
}

/// Per-AP channel gains and CFOs of the clean 3-AP measurement frame.
constexpr cplx kFrameGains[3] = {{0.9, 0.3}, {-0.5, 0.8}, {0.4, -0.7}};
constexpr double kFrameCfos[3] = {3000.0, -5200.0, 800.0};

/// A 3-AP measurement frame rendered at sample 150 through trivial
/// per-AP channels (kFrameGains) with known CFOs (kFrameCfos), over a
/// -60 dB noise floor.
cvec clean_measurement_frame(const phy::PhyConfig& cfg,
                             const MeasurementSchedule& sched) {
  Rng rng(1);
  cvec buf(sched.frame_len() + 400);
  for (auto& v : buf) v = rng.cgaussian(1e-6);
  const std::size_t at = 150;
  for (std::size_t ap = 0; ap < 3; ++ap) {
    const cvec w = sched.ap_waveform(ap);
    for (std::size_t n = 0; n < w.size(); ++n) {
      const double t = static_cast<double>(at + n);
      buf[at + n] += w[n] * kFrameGains[ap] *
                     phasor(kTwoPi * kFrameCfos[ap] * t / cfg.sample_rate_hz);
    }
  }
  return buf;
}

TEST(MeasurementFrame, CleanChannelRecovery) {
  // The client's estimates of the clean frame must match gains and
  // reference phases.
  const phy::PhyConfig cfg;
  const MeasurementSchedule sched{3, 4};
  const cvec buf = clean_measurement_frame(cfg, sched);
  Workspace ws;
  const auto cm = process_measurement_frame(buf, sched, cfg, ws);
  ASSERT_TRUE(cm.has_value());
  EXPECT_NEAR(static_cast<double>(cm->header_start), 150.0, 3.0);
  for (std::size_t ap = 0; ap < 3; ++ap) {
    EXPECT_NEAR(cm->per_ap[ap].cfo_hz, kFrameCfos[ap], 25.0) << "ap " << ap;
    // The estimate should equal gain * e^{j cfo * header_start_phase}
    // rotated to the reference time; compare against the oracle value at
    // the detected header.
    // Estimates are referenced to the block-center snapshot time.
    const cplx expect =
        kFrameGains[ap] * phasor(kTwoPi * kFrameCfos[ap] *
                                 static_cast<double>(cm->reference_sample) /
                                 cfg.sample_rate_hz);
    for (int k : {-20, -5, 5, 20}) {
      // The FFT windows back off 4 samples into the CP, adding the ramp
      // e^{-j 2 pi k 4/64} per subcarrier. It is common to every AP and
      // cancels through the client's own estimation in the full loop, but
      // the oracle here must include it.
      const cplx ramp = phasor(-kTwoPi * static_cast<double>(k) * 4.0 / 64.0);
      EXPECT_NEAR(std::abs(cm->per_ap[ap].channel.at(k) - expect * ramp), 0.0,
                  0.06)
          << "ap " << ap << " sc " << k;
    }
  }
}

TEST(MeasurementFrame, FailsWithoutPreamble) {
  const phy::PhyConfig cfg;
  Rng rng(2);
  const cvec noise = rng.cgaussian_vec(4000, 1.0);
  Workspace ws;
  EXPECT_FALSE(process_measurement_frame(noise, {3, 2}, cfg, ws).has_value());
}

TEST(JmbSystemTest, MeasurementProducesConsistentChannels) {
  SystemParams p;
  p.n_aps = 3;
  p.n_clients = 3;
  p.seed = 5;
  JmbSystem sys(p, flat_gains(3, 3, 25.0));
  ASSERT_TRUE(sys.run_measurement());
  ASSERT_TRUE(sys.ready());
  const ChannelMatrixSet& h = sys.measured_channels();
  EXPECT_EQ(h.n_clients(), 3u);
  EXPECT_EQ(h.n_tx(), 3u);
  // Mean measured link power should be in the ballpark of the configured
  // gain (Rayleigh/Rician spread makes individual links vary).
  const double expect_gain = JmbSystem::gain_for_snr_db(25.0, 1.0);
  double acc = 0.0;
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t a = 0; a < 3; ++a) acc += h.mean_link_power(c, a);
  }
  acc /= 9.0;
  EXPECT_GT(acc, expect_gain * 0.25);
  EXPECT_LT(acc, expect_gain * 4.0);
}

TEST(JmbSystemTest, JointTransmissionDeliversAllStreams) {
  SystemParams p;
  p.n_aps = 3;
  p.n_clients = 3;
  p.seed = 7;
  JmbSystem sys(p, flat_gains(3, 3, 28.0));
  ASSERT_TRUE(sys.run_measurement());
  // Operate at a paper-like effective SNR (high band), then re-measure so
  // the measurement noise matches the operating point.
  sys.calibrate_to_effective_snr(22.0);
  sys.advance_time(2e-3);
  ASSERT_TRUE(sys.run_measurement());

  Rng rng(8);
  std::vector<phy::ByteVec> psdus;
  for (int c = 0; c < 3; ++c) psdus.push_back(random_psdu(rng, 300));

  sys.advance_time(5e-3);
  const JointResult jr = sys.transmit_joint(
      psdus, {phy::Modulation::kQam16, phy::CodeRate::kHalf});
  EXPECT_EQ(jr.slaves_synced, 2u);
  ASSERT_EQ(jr.per_client.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    ASSERT_TRUE(jr.per_client[c].ok)
        << "client " << c << ": " << jr.per_client[c].fail_reason;
    EXPECT_EQ(jr.per_client[c].psdu, psdus[c]) << "client " << c;
  }
}

TEST(JmbSystemTest, JointTransmissionSurvivesCoherenceTimeGap) {
  // The whole point of per-packet re-sync: a single measurement serves
  // transmissions spread over ~100 ms (within the coherence time) even
  // though CFO-predicted phase would have wrapped many times over.
  SystemParams p;
  p.n_aps = 2;
  p.n_clients = 2;
  p.seed = 9;
  p.coherence_time_s = 10.0;  // keep the channel itself still: isolate sync
  JmbSystem sys(p, flat_gains(2, 2, 28.0));
  ASSERT_TRUE(sys.run_measurement());
  sys.calibrate_to_effective_snr(20.0);
  sys.advance_time(2e-3);
  ASSERT_TRUE(sys.run_measurement());

  Rng rng(10);
  for (int round = 0; round < 4; ++round) {
    sys.advance_time(25e-3);
    std::vector<phy::ByteVec> psdus{random_psdu(rng, 200),
                                    random_psdu(rng, 200)};
    const JointResult jr = sys.transmit_joint(
        psdus, {phy::Modulation::kQpsk, phy::CodeRate::kHalf});
    for (std::size_t c = 0; c < 2; ++c) {
      ASSERT_TRUE(jr.per_client[c].ok)
          << "round " << round << " client " << c << ": "
          << jr.per_client[c].fail_reason;
      EXPECT_EQ(jr.per_client[c].psdu, psdus[c]);
    }
  }
}

TEST(JmbSystemTest, InrSmallWithSyncEnabled) {
  SystemParams p;
  p.n_aps = 3;
  p.n_clients = 3;
  p.seed = 11;
  // Median over topologies: single draws have a heavy conditioning tail.
  rvec inrs;
  for (std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u, 17u, 18u}) {
    p.seed = seed;
    JmbSystem sys(p, flat_gains(3, 3, 22.0));
    ASSERT_TRUE(sys.run_measurement());
    sys.calibrate_to_effective_snr(20.0);
    sys.advance_time(2e-3);
    ASSERT_TRUE(sys.run_measurement());
    sys.advance_time(2e-3);
    inrs.push_back(sys.measure_inr(0));
  }
  // Fig. 8 territory: residual interference within a few dB of the noise
  // floor. Our estimation-limited nulls sit ~-30 dB below the signal, so
  // the median INR lands a couple of dB above the paper's testbed values;
  // EXPERIMENTS.md discusses the delta. The scaling trend matches.
  EXPECT_LT(median(inrs), 6.0);
  for (double v : inrs) EXPECT_GT(v, -1.0);
}

TEST(JmbSystemTest, AlignmentSeriesMatchesPaperScale) {
  SystemParams p;
  p.n_aps = 2;
  p.n_clients = 1;
  p.seed = 13;
  // The paper's probe isolates oscillator sync on a static testbed; a
  // moving channel would add its own (genuine, but different) drift.
  p.coherence_time_s = 1e4;
  JmbSystem sys(p, flat_gains(1, 2, 25.0));
  ASSERT_TRUE(sys.run_measurement());
  const rvec dev = sys.measure_alignment_series(30, 5e-3);
  ASSERT_GE(dev.size(), 20u);
  // Paper Fig. 7: median 0.017 rad, 95th percentile 0.05 rad. Allow slack
  // for our different (simulated) hardware, but require the same order.
  EXPECT_LT(median(dev), 0.05);
  EXPECT_LT(percentile(dev, 0.95), 0.15);
}

TEST(JmbSystemTest, DiversityBeatsSingleApAtLowSnr) {
  SystemParams p;
  p.n_aps = 4;
  p.n_clients = 1;
  p.seed = 15;
  JmbSystem sys(p, flat_gains(1, 4, 8.0));  // weak links
  ASSERT_TRUE(sys.run_measurement());
  sys.advance_time(2e-3);
  Rng rng(16);
  const phy::ByteVec psdu = random_psdu(rng, 200);
  const phy::RxResult res = sys.transmit_diversity(
      0, psdu, {phy::Modulation::kQpsk, phy::CodeRate::kHalf});
  ASSERT_TRUE(res.ok) << res.fail_reason;
  EXPECT_EQ(res.psdu, psdu);
  // Coherent combining of 4 APs at 8 dB/link should land well above a
  // single 8 dB link (ideal +12 dB).
  EXPECT_GT(res.preamble.snr_db, 14.0);
}

TEST(JmbSystemTest, PredictedSnrTracksConfiguredGain) {
  SystemParams p;
  p.n_aps = 2;
  p.n_clients = 2;
  p.seed = 17;
  JmbSystem sys(p, flat_gains(2, 2, 24.0));
  ASSERT_TRUE(sys.run_measurement());
  // ZF through a 2x2 at per-link 24 dB: within a broad band of the link
  // SNR (conditioning makes it vary).
  const double snr = sys.predicted_beamforming_snr_db();
  EXPECT_GT(snr, 8.0);
  EXPECT_LT(snr, 32.0);
}

TEST(JmbSystemTest, InputValidation) {
  SystemParams p;
  p.n_aps = 2;
  p.n_clients = 2;
  JmbSystem sys(p, flat_gains(2, 2, 20.0));
  EXPECT_THROW((void)sys.transmit_joint({}, phy::rate_set()[0]),
               std::logic_error);
  EXPECT_THROW((void)sys.measure_inr(0), std::logic_error);
  EXPECT_THROW(sys.advance_time(-1.0), std::invalid_argument);
  EXPECT_THROW(JmbSystem(p, flat_gains(1, 2, 20.0)), std::invalid_argument);

  // SystemParams entry check: each defect throws naming its field instead
  // of constructing a system that never measures.
  const auto rejects = [](const char* field, auto&& mutate) {
    SystemParams bad;
    mutate(bad);
    try {
      JmbSystem s(bad, flat_gains(bad.n_clients, bad.n_aps, 20.0));
      ADD_FAILURE() << "expected std::invalid_argument naming " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  rejects("n_aps", [](SystemParams& q) { q.n_aps = 0; });
  rejects("n_clients", [](SystemParams& q) { q.n_clients = 0; });
}

TEST(Compat11n, ReferenceAntennaTrickReconstructsH) {
  Rng rng(20);
  Compat11nParams p;
  const Compat11nResult r = run_compat11n(p, rng);
  // With the trick: a few percent error (estimation noise dominated).
  EXPECT_LT(r.reconstruction_rel_err, 0.2);
  // Without it, the stale soundings are rotated by essentially random
  // phases: order-of-magnitude worse.
  EXPECT_GT(r.naive_rel_err, 3.0 * r.reconstruction_rel_err);
}

TEST(Compat11n, JointBeatsBaselinePerStream) {
  Rng rng(21);
  Compat11nParams p;
  p.link_gain = from_db(22.0);
  const Compat11nResult r = run_compat11n(p, rng);
  ASSERT_EQ(r.jmb_stream_sinr.size(), 4u);
  // All four streams decodable concurrently: each stream's effective SNR
  // supports some rate.
  for (const rvec& s : r.jmb_stream_sinr) {
    EXPECT_TRUE(rate::select_rate(s).has_value());
  }
  // Baseline gets only 2 concurrent streams (one client at a time); the
  // JMB aggregate rate (data bits per symbol, proportional to the PHY
  // rate) must exceed the baseline's time-shared aggregate.
  double jmb_rate = 0.0, base_rate = 0.0;
  for (const rvec& s : r.jmb_stream_sinr) {
    if (const auto ri = rate::select_rate(s)) {
      jmb_rate += static_cast<double>(phy::rate_set()[*ri].n_dbps());
    }
  }
  for (const rvec& s : r.baseline_stream_snr) {
    if (const auto ri = rate::select_rate(s)) {
      base_rate += static_cast<double>(phy::rate_set()[*ri].n_dbps());
    }
  }
  base_rate /= 2.0;  // two clients time-share the medium
  EXPECT_GT(jmb_rate, 1.2 * base_rate);
}

TEST(Compat11n, RxZfStreamSnrs) {
  // Orthogonal channel: no noise enhancement; each stream gets |h|^2/noise.
  CMatrix h{{cplx{2, 0}, cplx{0, 0}}, {cplx{0, 0}, cplx{1, 0}}};
  const rvec snrs = rx_zf_stream_snrs(h, 1.0, 0.5);
  EXPECT_NEAR(snrs[0], 8.0, 1e-9);
  EXPECT_NEAR(snrs[1], 2.0, 1e-9);
  // Rank-deficient: zero SNRs, no crash.
  CMatrix bad{{cplx{1, 0}, cplx{1, 0}}, {cplx{1, 0}, cplx{1, 0}}};
  for (double s : rx_zf_stream_snrs(bad, 1.0, 1.0)) EXPECT_EQ(s, 0.0);
}

TEST(Decoupled, SharedReferenceFixesStaleRows) {
  Rng rng(22);
  DecoupledParams p;
  p.link_gain = from_db(22.0);
  const DecoupledResult r = run_decoupled(p, rng);
  ASSERT_EQ(r.sinr_db.size(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    // Decoupled measurement tracks the oracle within a few dB.
    EXPECT_GT(r.sinr_db[c], r.oracle_sinr_db[c] - 6.0) << c;
  }
  // Naive stitching: the first client's row happens to be self-consistent
  // (exact inverses null on their own row), but every client measured at a
  // later time collapses to interference-limited SINR.
  EXPECT_GT(r.sinr_db[1], r.naive_sinr_db[1] + 6.0);
  EXPECT_LT(r.naive_sinr_db[1], 10.0);
}

TEST(Decoupled, WorksForMoreNodes) {
  Rng rng(23);
  DecoupledParams p;
  p.n_nodes = 4;
  p.link_gain = from_db(22.0);
  const DecoupledResult r = run_decoupled(p, rng);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_GT(r.sinr_db[c], 12.0) << c;  // oracle target is 20 dB
    EXPECT_GT(r.sinr_db[c], r.oracle_sinr_db[c] - 8.0) << c;
  }
  // Stale rows without the shared reference: last client suffers most.
  EXPECT_LT(r.naive_sinr_db[3], r.sinr_db[3] - 6.0);
}

// ------------------------------------------------------------ core golden
//
// FNV-1a digests over every output double (by bit pattern) of the
// channel-level compat and decoupled models and of the client's
// measurement-frame processing, for a seeded grid. Each model digest also
// folds in the caller's next RNG draw, so a change in how many draws a run
// takes shows up too. The table was generated before the workspace-less
// overloads of these functions were removed.

using golden::expect_golden;
using golden::Fnv;
using golden::GoldenTable;

TEST(CoreGolden, Compat11n) {
  const GoldenTable want = {
      {"compat/22dB/seed1", 0xa0ffc2ca4e0921c6ull},
      {"compat/22dB/seed2", 0x6d8117cf3b4cf14cull},
      {"compat/15dB/seed1", 0x6978cdbfc5e61b93ull},
      {"compat/15dB/seed2", 0x7f0839c73ca57304ull},
      {"compat/9dB/seed1", 0xa6ffd7e1b2738729ull},
      {"compat/9dB/seed2", 0xf9ba2ab79f98a3a2ull},
  };
  // The three SNR band centers fig12 uses, each as link gain and target.
  for (const double band_db : {22.0, 15.0, 9.0}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      Compat11nParams p;
      p.link_gain = from_db(band_db);
      p.effective_snr_db = band_db;
      Rng rng(seed);
      const Compat11nResult r = run_compat11n(p, rng);
      Fnv d;
      d.add(r.reconstruction_rel_err);
      d.add(r.naive_rel_err);
      d.add(static_cast<std::uint64_t>(r.jmb_stream_sinr.size()));
      for (const rvec& s : r.jmb_stream_sinr) d.add(s);
      d.add(static_cast<std::uint64_t>(r.baseline_stream_snr.size()));
      for (const rvec& s : r.baseline_stream_snr) d.add(s);
      d.add(rng.next_u64());
      expect_golden(want,
                    "compat/" + std::to_string(static_cast<int>(band_db)) +
                        "dB/seed" + std::to_string(seed),
                    d.value());
    }
  }
}

TEST(CoreGolden, Decoupled) {
  const GoldenTable want = {
      {"decoupled/n2", 0xc830fea452d5d384ull},
      {"decoupled/n4", 0xac552028ee176a0aull},
  };
  for (const std::size_t n : {2u, 4u}) {
    DecoupledParams p;
    p.n_nodes = n;
    p.link_gain = from_db(22.0);
    Rng rng(40 + n);
    const DecoupledResult r = run_decoupled(p, rng);
    Fnv d;
    d.add(r.sinr_db);
    d.add(r.naive_sinr_db);
    d.add(r.oracle_sinr_db);
    d.add(rng.next_u64());
    expect_golden(want, "decoupled/n" + std::to_string(n), d.value());
  }
}

TEST(CoreGolden, MeasurementFrame) {
  const GoldenTable want = {
      {"measurement/cold", 0xa1739e472e7371afull},
      {"measurement/warm", 0xa1739e472e7371afull},
  };
  const phy::PhyConfig cfg;
  const MeasurementSchedule sched{3, 4};
  const cvec buf = clean_measurement_frame(cfg, sched);
  Workspace ws;
  // The second pass runs on a warm workspace and must match the first.
  for (const char* pass : {"cold", "warm"}) {
    const auto cm = process_measurement_frame(buf, sched, cfg, ws);
    ASSERT_TRUE(cm.has_value());
    Fnv d;
    d.add(static_cast<std::uint64_t>(cm->header_start));
    d.add(static_cast<std::uint64_t>(cm->reference_sample));
    d.add(cm->noise_var);
    d.add(static_cast<std::uint64_t>(cm->per_ap.size()));
    for (const PerApMeasurement& m : cm->per_ap) {
      d.add(m.cfo_hz);
      for (const cplx v : m.channel.h) {
        d.add(v.real());
        d.add(v.imag());
      }
    }
    expect_golden(want, std::string("measurement/") + pass, d.value());
  }
}

// ------------------------------------------------------------ validation

/// Runs `fn`, which must throw std::invalid_argument naming `field`.
template <class Fn>
void expect_rejects(Fn fn, const std::string& field) {
  try {
    fn();
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(CoreValidation, Compat11nRejectsZeroLinkGain) {
  // Regression: a zero gain made both reconstruction errors 0/0 = NaN.
  Compat11nParams p;
  p.link_gain = 0.0;
  Rng rng(1);
  expect_rejects([&] { (void)run_compat11n(p, rng); }, "link_gain");
}

TEST(CoreValidation, Compat11nRejectsNanLinkGain) {
  // Regression: a NaN gain made every baseline stream SNR NaN.
  Compat11nParams p;
  p.link_gain = std::nan("");
  Rng rng(1);
  expect_rejects([&] { (void)run_compat11n(p, rng); }, "link_gain");
}

TEST(CoreValidation, Compat11nRejectsNonFiniteEffectiveSnr) {
  // Any finite target is an operating point; a non-finite one would make
  // every stream SINR NaN or zero.
  Rng rng(1);
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Compat11nParams p;
    p.effective_snr_db = bad;
    expect_rejects([&] { (void)run_compat11n(p, rng); }, "effective_snr_db");
  }
}

TEST(CoreValidation, DecoupledRejectsZeroLinkGain) {
  // Regression: a zero gain silently reported the -100 dB "no precoder"
  // sentinel for every client.
  DecoupledParams p;
  p.link_gain = 0.0;
  Rng rng(1);
  expect_rejects([&] { (void)run_decoupled(p, rng); }, "link_gain");
}

TEST(CoreValidation, DecoupledRejectsNanMeasurementSpacing) {
  // Regression: NaN measurement times also ended in the -100 dB sentinel.
  DecoupledParams p;
  p.measurement_spacing_s = std::nan("");
  Rng rng(1);
  expect_rejects([&] { (void)run_decoupled(p, rng); },
                 "measurement_spacing_s");
}

TEST(CoreValidation, RejectsNonFiniteSnrAndBadIntervals) {
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(1);
  for (const double bad : {std::nan(""), inf, -inf}) {
    DecoupledParams d;
    d.measure_snr_db = bad;
    expect_rejects([&] { (void)run_decoupled(d, rng); }, "measure_snr_db");
  }
  for (const double bad : {-1e-3, inf, std::nan("")}) {
    DecoupledParams d;
    d.measurement_spacing_s = bad;
    expect_rejects([&] { (void)run_decoupled(d, rng); },
                   "measurement_spacing_s");
  }
  Compat11nParams c;
  c.link_gain = -1.0;
  expect_rejects([&] { (void)run_compat11n(c, rng); }, "link_gain");
  DecoupledParams d;
  d.link_gain = inf;
  expect_rejects([&] { (void)run_decoupled(d, rng); }, "link_gain");
}

}  // namespace
}  // namespace jmb::core
