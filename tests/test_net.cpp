// Tests for the link layer: the shared downlink queue and the baseline vs
// JMB MAC simulations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fault/injector.h"
#include "fault/plan.h"
#include "dsp/rng.h"
#include "fault/resilience.h"
#include "golden_digest.h"
#include "net/mac.h"
#include "net/queue.h"
#include "rate/effective_snr.h"
#include "traffic/flow.h"
#include "traffic/policy.h"

namespace jmb::net {
namespace {

/// The globally oldest packet of a non-empty queue: the front of the
/// first client in arrival order.
const Packet& head(const DownlinkQueue& q) {
  return *q.front_of(q.clients_fifo().front());
}

TEST(Queue, FifoAndHead) {
  DownlinkQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.clients_fifo().empty());
  q.push({0, 1500, 0, 0.0, 0, 1});
  q.push({1, 1500, 0, 0.0, 0, 2});
  EXPECT_EQ(head(q).id, 1u);
  const auto p = q.pop();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->id, 1u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(Queue, PushFrontForRetransmission) {
  DownlinkQueue q;
  q.push({0, 1500, 0, 0.0, 0, 1});
  q.push_front({1, 1500, 0, 0.0, 1, 2});
  EXPECT_EQ(head(q).id, 2u);
  // The re-queue IS the retry: push_front bumps the count itself, so a
  // packet that failed once and is re-queued carries retries = 2.
  EXPECT_EQ(head(q).retries, 2);
}

TEST(Queue, JointSelectionDistinctClients) {
  DownlinkQueue q;
  // Client pattern: 0, 0, 1, 2, 1, 3.
  const std::size_t clients[] = {0, 0, 1, 2, 1, 3};
  for (std::size_t i = 0; i < 6; ++i) {
    q.push({clients[i], 1500, 0, 0.0, 0, i});
  }
  const auto batch = q.pop_joint(3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id, 0u);  // head (client 0)
  EXPECT_EQ(batch[1].id, 2u);  // first client-1 packet
  EXPECT_EQ(batch[2].id, 3u);  // first client-2 packet
  // Remaining queue preserves order: ids 1 (client 0), 4, 5.
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(head(q).id, 1u);
}

TEST(Queue, JointSelectionFewerClientsThanStreams) {
  DownlinkQueue q;
  q.push({0, 1500, 0, 0.0, 0, 1});
  q.push({0, 1500, 0, 0.0, 0, 2});
  const auto batch = q.pop_joint(4);
  EXPECT_EQ(batch.size(), 1u);  // only one distinct client available
  EXPECT_TRUE(q.pop_joint(0).empty());
}

TEST(Queue, JointSelectionAllPacketsOneClient) {
  DownlinkQueue q;
  for (std::size_t i = 0; i < 5; ++i) {
    q.push({7, 1500, 0, 0.0, 0, i});
  }
  // Every packet targets one client: a joint transmission degenerates to
  // a single stream, takes only the head, and leaves the rest untouched.
  const auto batch = q.pop_joint(3);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(head(q).id, 1u);
}

TEST(Queue, PushFrontRetryOrderAfterFailedJoint) {
  DownlinkQueue q;
  // Three clients' heads go out jointly; the transmission fails and the
  // MAC re-queues the batch at the front, as run_jmb_mac does.
  for (std::size_t i = 0; i < 3; ++i) {
    q.push({i, 1500, 0, 0.0, 0, i});       // ids 0,1,2 (one per client)
    q.push({i, 1500, 0, 0.0, 0, 10 + i});  // backlog ids 10,11,12
  }
  auto batch = q.pop_joint(3);
  ASSERT_EQ(batch.size(), 3u);
  for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
    q.push_front(*it);  // increments retries itself
  }
  // Retries drain before the backlog, in the original batch order.
  const auto again = q.pop_joint(3);
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again[0].id, 0u);
  EXPECT_EQ(again[1].id, 1u);
  EXPECT_EQ(again[2].id, 2u);
  EXPECT_EQ(again[0].retries, 1);
  EXPECT_EQ(head(q).id, 10u);
}

TEST(Queue, HeadOnEmptyThrowsAndQueueStaysUsable) {
  DownlinkQueue q;
  EXPECT_TRUE(q.clients_fifo().empty());
  EXPECT_EQ(q.front_of(0), nullptr);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_TRUE(q.pop_joint(2).empty());
  // The failed accesses must not corrupt the queue.
  q.push({0, 1500, 0, 0.0, 0, 42});
  EXPECT_EQ(head(q).id, 42u);
  EXPECT_EQ(q.size(), 1u);
}

LinkStateFn flat_links(double snr_db) {
  return [snr_db](std::size_t) {
    return LinkState{rvec(phy::kNumDataCarriers, from_db(snr_db))};
  };
}

TEST(Mac, BaselineSharesMediumEqually) {
  MacParams p;
  p.duration_s = 0.5;
  const MacReport r = run_baseline_mac(4, flat_links(25.0), p);
  ASSERT_EQ(r.per_client.size(), 4u);
  // All clients at the same SNR deliver within a packet of each other.
  for (const auto& c : r.per_client) {
    EXPECT_NEAR(static_cast<double>(c.delivered),
                static_cast<double>(r.per_client[0].delivered), 2.0);
    EXPECT_EQ(c.dropped, 0u);
  }
  EXPECT_GT(r.total_goodput_mbps, 15.0);  // 27 Mb/s PHY less overheads
  EXPECT_LT(r.total_goodput_mbps, 27.0);
  EXPECT_EQ(r.joint_transmissions, 0u);
}

TEST(Mac, BaselineTotalIndependentOfClientCount) {
  // The core 802.11 scaling fact: total throughput does not grow with n.
  MacParams p;
  p.duration_s = 0.5;
  const double t2 = run_baseline_mac(2, flat_links(20.0), p).total_goodput_mbps;
  const double t8 = run_baseline_mac(8, flat_links(20.0), p).total_goodput_mbps;
  EXPECT_NEAR(t8 / t2, 1.0, 0.05);
}

TEST(Mac, JmbScalesWithStreams) {
  MacParams p;
  p.duration_s = 0.5;
  const double t2 =
      run_jmb_mac(2, 2, 2, flat_links(25.0), p).total_goodput_mbps;
  const double t8 =
      run_jmb_mac(8, 8, 8, flat_links(25.0), p).total_goodput_mbps;
  EXPECT_GT(t2, 20.0);
  // 4x the streams: close to 4x the throughput (measurement overhead grows
  // slightly with N).
  EXPECT_NEAR(t8 / t2, 4.0, 0.5);
}

TEST(Mac, JmbBeatsBaselineHeadToHead) {
  MacParams p;
  p.duration_s = 0.5;
  const double base =
      run_baseline_mac(6, flat_links(22.0), p).total_goodput_mbps;
  const double jmb =
      run_jmb_mac(6, 6, 6, flat_links(22.0), p).total_goodput_mbps;
  EXPECT_GT(jmb / base, 4.0);  // ideal 6x less overheads
}

TEST(Mac, MeasurementOverheadAccounted) {
  MacParams p;
  p.duration_s = 1.0;
  p.coherence_time_s = 0.1;
  const MacReport r = run_jmb_mac(4, 4, 4, flat_links(25.0), p);
  EXPECT_GT(r.measurement_airtime_s, 0.0);
  // ~10 measurement epochs in a second.
  EXPECT_NEAR(
      r.measurement_airtime_s / rate::measurement_airtime_s(4, 4, p.airtime),
      10.0, 2.0);
  EXPECT_LE(r.data_airtime_s + r.measurement_airtime_s, p.duration_s + 0.05);
}

TEST(Mac, LowSnrClientRetriesAndDrops) {
  // One client far below threshold: baseline burns airtime on it, delivers
  // nothing to it, but others still progress.
  MacParams p;
  p.duration_s = 0.2;
  p.max_retries = 2;
  const LinkStateFn links = [](std::size_t client) {
    return LinkState{rvec(phy::kNumDataCarriers,
                          from_db(client == 0 ? -10.0 : 25.0))};
  };
  const MacReport r = run_baseline_mac(2, links, p);
  EXPECT_EQ(r.per_client[0].delivered, 0u);
  EXPECT_GT(r.per_client[0].dropped, 0u);
  EXPECT_GT(r.per_client[1].delivered, 10u);
}

TEST(Mac, MarginalSnrCausesRetransmissions) {
  MacParams p;
  p.duration_s = 0.5;
  p.seed = 7;
  // Pick an SNR a hair above the 64-QAM 3/4 threshold: ~10% PER.
  const double thr = rate::rate_thresholds_db().back();
  const MacReport r = run_jmb_mac(2, 2, 2, flat_links(thr), p);
  EXPECT_GT(r.per_client[0].failed_attempts + r.per_client[1].failed_attempts,
            5u);
  EXPECT_GT(r.per_client[0].delivered, 50u);  // retransmissions recover
}

// ------------------------------------------------------------ validation
//
// Each case used to hang, crash or return an empty / NaN report; the
// single entry check now throws std::invalid_argument naming the field.

template <class Run>
void expect_rejects(const Run& run, const char* field) {
  try {
    (void)run();
    ADD_FAILURE() << "expected std::invalid_argument naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(MacValidation, ZeroStreamsInTrafficModeThrows) {
  // Used to spin forever: no stream could be picked and time never moved.
  traffic::PacketSource src(1, 2, traffic::make_profile("poisson", 5.0), 0.1);
  MacParams p;
  p.duration_s = 0.1;
  p.saturated = false;
  p.traffic = &src;
  expect_rejects([&] { return run_jmb_mac(2, 2, 0, flat_links(25.0), p); },
                 "n_streams");
}

TEST(MacValidation, MoreStreamsThanApsThrows) {
  // Used to report 145 Mb/s from two APs serving eight joint streams:
  // zero-forcing cannot null more streams than there are transmitters.
  MacParams p;
  p.duration_s = 0.1;
  expect_rejects([&] { return run_jmb_mac(2, 8, 8, flat_links(25.0), p); },
                 "n_streams");
  expect_rejects([&] { return run_jmb_mac(2, 3, 3, flat_links(25.0), p); },
                 "n_streams");
}

TEST(MacValidation, ZeroClientsThrows) {
  // Used to die with SIGFPE in the round-robin fill (rr % n_clients).
  MacParams p;
  p.duration_s = 0.1;
  expect_rejects([&] { return run_jmb_mac(2, 0, 2, flat_links(25.0), p); },
                 "n_clients");
  expect_rejects([&] { return run_baseline_mac(0, flat_links(25.0), p); },
                 "n_clients");
}

TEST(MacValidation, NonPositiveOrNonFiniteDurationThrows) {
  // duration_s = 0 used to divide by zero into NaN goodput.
  for (const double d : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    MacParams p;
    p.duration_s = d;
    expect_rejects([&] { return run_baseline_mac(2, flat_links(25.0), p); },
                   "duration_s");
    expect_rejects([&] { return run_jmb_mac(2, 2, 2, flat_links(25.0), p); },
                   "duration_s");
  }
}

TEST(MacValidation, NonPositiveCoherenceOnJmbThrows) {
  // Used to measure back to back, transmit nothing and report 0 goodput.
  for (const double tc : {0.0, -0.1}) {
    MacParams p;
    p.duration_s = 0.1;
    p.coherence_time_s = tc;
    expect_rejects([&] { return run_jmb_mac(2, 2, 2, flat_links(25.0), p); },
                   "coherence_time_s");
    // The baseline has no measurement epochs, so it does not care.
    EXPECT_GT(run_baseline_mac(2, flat_links(25.0), p).total_goodput_mbps,
              0.0);
  }
}

TEST(MacValidation, UnsaturatedWithoutTrafficThrows) {
  // Used to return an empty report: no fill and no arrivals.
  MacParams p;
  p.duration_s = 0.1;
  p.saturated = false;
  expect_rejects([&] { return run_baseline_mac(2, flat_links(25.0), p); },
                 "saturated");
  expect_rejects([&] { return run_jmb_mac(2, 2, 2, flat_links(25.0), p); },
                 "saturated");
}

TEST(MacValidation, NegativeOrNonFiniteTurnaroundThrows) {
  // -1 ms used to hang: every joint frame's airtime went negative, so the
  // clock ran backwards.
  for (const double turn : {-1e-3, std::nan(""), HUGE_VAL}) {
    MacParams p;
    p.duration_s = 0.01;
    p.airtime.turnaround_s = turn;
    expect_rejects([&] { return run_jmb_mac(2, 2, 2, flat_links(25.0), p); },
                   "turnaround_s");
    expect_rejects([&] { return run_baseline_mac(2, flat_links(25.0), p); },
                   "turnaround_s");
  }
}

TEST(MacValidation, NonPositiveOrNonFiniteSampleRateThrows) {
  // -10 MHz used to hang: every airtime came out negative.
  for (const double fs : {-10e6, 0.0, std::nan(""), HUGE_VAL}) {
    MacParams p;
    p.duration_s = 0.01;
    p.airtime.sample_rate_hz = fs;
    expect_rejects([&] { return run_jmb_mac(2, 2, 2, flat_links(25.0), p); },
                   "sample_rate_hz");
    expect_rejects([&] { return run_baseline_mac(2, flat_links(25.0), p); },
                   "sample_rate_hz");
  }
}

TEST(MacValidation, FeedbackRatePastRateSetThrows) {
  // 1000000 used to segfault indexing rate_set() in the measurement
  // airtime.
  for (const std::size_t idx : {phy::rate_set().size(), std::size_t{1000000}}) {
    MacParams p;
    p.duration_s = 0.01;
    p.airtime.feedback_rate_index = idx;
    expect_rejects([&] { return run_jmb_mac(2, 2, 2, flat_links(25.0), p); },
                   "feedback_rate_index");
  }
}

// ------------------------------------------------------------ MAC golden
//
// FNV-1a digests over every MacReport field (doubles by bit pattern) for a
// seeded grid covering all four entry points: saturated and traffic-mode
// runs, churn hooks, schedulers x aggregation, and fault/resilience
// combinations. The table was generated from the MAC before its event
// loops were merged, so any change to draw order, accounting or timing on
// any of these paths shows up as a digest mismatch naming the case.

using golden::expect_golden;
using golden::Fnv;
using golden::GoldenTable;

std::uint64_t report_digest(const MacReport& r, Fnv d = {}) {
  const auto n = [&d](std::size_t v) { d.add(static_cast<std::uint64_t>(v)); };
  n(r.per_client.size());
  for (const ClientStats& c : r.per_client) {
    n(c.delivered);
    n(c.failed_attempts);
    n(c.dropped);
    d.add(c.goodput_mbps);
  }
  d.add(r.total_goodput_mbps);
  d.add(r.data_airtime_s);
  d.add(r.measurement_airtime_s);
  d.add(r.duration_s);
  n(r.joint_transmissions);
  n(r.measurement_epochs);
  n(r.frame_latency_s.size());
  for (const double l : r.frame_latency_s) d.add(l);
  n(r.flows.size());
  for (const FlowStats& f : r.flows) {
    n(f.client);
    n(f.flow);
    n(f.delivered);
    n(f.dropped);
    n(f.deadline_misses);
    n(f.delivered_bytes);
    d.add(f.goodput_mbps);
    d.add(f.mean_latency_s);
    d.add(f.max_latency_s);
    d.add(f.jitter_s);
  }
  n(r.offered_packets);
  n(r.aggregated_mpdus);
  d.add(r.max_queue_depth);
  n(r.lead_elections);
  n(r.faults_injected);
  n(r.quarantines);
  n(r.backhaul_drops);
  d.add(r.mean_time_to_detect_s);
  d.add(r.mean_time_to_recover_s);
  return d.value();
}

/// Per-client SNR levels cycling through 25 dB, the top rate's threshold
/// (marginal: frequent PER failures) and -10 dB (below the base rate).
double golden_snr_db(std::size_t client) {
  const double levels[3] = {25.0, rate::rate_thresholds_db().back(), -10.0};
  return levels[client % 3];
}

LinkState golden_state(double snr_db) {
  return LinkState{rvec(phy::kNumDataCarriers, from_db(snr_db))};
}

LinkStateFn golden_links() {
  return [](std::size_t c) { return golden_state(golden_snr_db(c)); };
}

/// The fault grid leaves out the unreachable level: a joint transmission
/// carrying a -10 dB member always fails, which would mask every fault.
double reachable_snr_db(std::size_t client) {
  return golden_snr_db(client % 2);
}

/// Client c's home AP is c % n_aps: the full level while it is up, 6 dB
/// less via another AP, unreachable once every AP is masked off.
MaskedLinkStateFn golden_masked_links(double (*level_db)(std::size_t) =
                                          golden_snr_db) {
  return [level_db](std::size_t c, const std::vector<std::uint8_t>& up) {
    bool any = false;
    for (const std::uint8_t u : up) any = any || u != 0;
    if (!any) return golden_state(-20.0);
    const bool home = up[c % up.size()] != 0;
    return golden_state(level_db(c) - (home ? 0.0 : 6.0));
  };
}

MacParams golden_params(std::uint64_t seed) {
  MacParams p;
  p.duration_s = 0.3;
  p.coherence_time_s = 0.1;
  p.max_retries = 3;
  p.seed = seed;
  return p;
}

/// Deterministic churn: odd clients drop out for part of every 50 ms, and
/// the whole cell is empty for 20 ms (idle slots).
bool golden_activity(std::size_t client, double t) {
  if (t >= 0.12 && t < 0.14) return false;
  return client % 2 == 0 || std::fmod(t, 0.05) < 0.03;
}

/// Adds the churn/hook knobs; on_measure folds each (epoch, t) callback
/// into `epochs`, which the case digests alongside the report.
void add_hooks(MacParams& p, Fnv& epochs, bool churn) {
  if (churn) p.activity = golden_activity;
  p.remeasure_at = {0.02, 0.05, 0.05, 0.2};
  p.record_latency = true;
  p.on_measure = [&epochs](std::size_t epoch, double t) {
    epochs.add(static_cast<std::uint64_t>(epoch));
    epochs.add(t);
  };
}

TEST(MacGolden, Saturated) {
  const GoldenTable want = {
      {"base/2", 0x4a8a74fb0851b0a4ull},
      {"jmb/2", 0x8a5ea21f19c923fdull},
      {"base_res/2", 0x4a8a74fb0851b0a4ull},
      {"jmb_res/2", 0x8a5ea21f19c923fdull},
      {"base_hooks/2", 0x32f62a4283a38bd0ull},
      {"base_res_hooks/2", 0x32f62a4283a38bd0ull},
      {"jmb_res_hooks/2", 0xcb385802959182d0ull},
      {"base_churn/2", 0xb52a1339bfe5bc25ull},
      {"base_res_churn/2", 0xb52a1339bfe5bc25ull},
      {"jmb_res_churn/2", 0x0e02b4d6b2f73afcull},
      {"jmb_hooks/2", 0xcb385802959182d0ull},
      {"base/4", 0x2bba94326e71f592ull},
      {"jmb/4", 0x89888458f7ce4b00ull},
      {"base_res/4", 0x2bba94326e71f592ull},
      {"jmb_res/4", 0x89888458f7ce4b00ull},
      {"base_hooks/4", 0x0d5892db0660ca26ull},
      {"base_res_hooks/4", 0x0d5892db0660ca26ull},
      {"jmb_res_hooks/4", 0x5fc27e2bd316fb3dull},
      {"base_churn/4", 0x68afcf2ecac71676ull},
      {"base_res_churn/4", 0x68afcf2ecac71676ull},
      {"jmb_res_churn/4", 0xf0a3aa030413baf3ull},
      {"jmb_hooks/4", 0x5fc27e2bd316fb3dull},
  };
  const LinkStateFn links = golden_links();
  const MaskedLinkStateFn masked = golden_masked_links();
  for (const std::size_t n : {std::size_t{2}, std::size_t{4}}) {
    const std::size_t c = n + 1;  // clients
    const std::string tag = "/" + std::to_string(n);
    const MacParams p = golden_params(100 + n);
    expect_golden(want, "base" + tag,
                  report_digest(run_baseline_mac(c, links, p)));
    expect_golden(want, "jmb" + tag,
                  report_digest(run_jmb_mac(n, c, n, links, p)));
    expect_golden(want, "base_res" + tag,
                  report_digest(run_baseline_mac_resilient(n, c, masked, p,
                                                           nullptr)));
    expect_golden(want, "jmb_res" + tag,
                  report_digest(run_jmb_mac_resilient(n, c, n, masked, p,
                                                      nullptr, nullptr)));
    for (const bool churn : {false, true}) {
      const std::string hooks = (churn ? "_churn" : "_hooks") + tag;
      Fnv e1;
      Fnv e2;
      Fnv e3;
      MacParams q1 = p;
      MacParams q2 = p;
      MacParams q3 = p;
      add_hooks(q1, e1, churn);
      add_hooks(q2, e2, churn);
      add_hooks(q3, e3, churn);
      const MacReport r1 = run_baseline_mac(c, links, q1);
      const MacReport r2 =
          run_baseline_mac_resilient(n, c, masked, q2, nullptr);
      const MacReport r3 =
          run_jmb_mac_resilient(n, c, n, masked, q3, nullptr, nullptr);
      expect_golden(want, "base" + hooks, report_digest(r1, e1));
      expect_golden(want, "base_res" + hooks, report_digest(r2, e2));
      expect_golden(want, "jmb_res" + hooks, report_digest(r3, e3));
    }
    // Plain run_jmb_mac is pinned without churn only: its fill budget is
    // the resilient loop's, which differs from the old plain loop's once
    // an activity hook skips clients (no caller combines the two).
    Fnv epochs;
    MacParams q = p;
    add_hooks(q, epochs, /*churn=*/false);
    const MacReport r = run_jmb_mac(n, c, n, links, q);
    expect_golden(want, "jmb_hooks" + tag, report_digest(r, epochs));
  }
}

TEST(MacGolden, Traffic) {
  const GoldenTable want = {
      {"base/null/agg1", 0x88c881e8f90e6032ull},
      {"base/null/agg4", 0xf05bb46d0a7ff842ull},
      {"base/fifo/agg1", 0x88c881e8f90e6032ull},
      {"base/fifo/agg4", 0xf05bb46d0a7ff842ull},
      {"base/pf/agg1", 0x5c5ba1361eb08cb9ull},
      {"base/pf/agg4", 0x49b4e861b3a51b21ull},
      {"base/edf/agg1", 0x13fc556fb65b90a8ull},
      {"base/edf/agg4", 0x6b246c552bc20cc7ull},
      {"jmb/null/agg1", 0x6231748f2de0fecdull},
      {"jmb/null/agg4", 0xe92856653f6be754ull},
      {"jmb/fifo/agg1", 0x6231748f2de0fecdull},
      {"jmb/fifo/agg4", 0xe92856653f6be754ull},
      {"jmb/pf/agg1", 0x0c6b7e95ac9c8145ull},
      {"jmb/pf/agg4", 0x9134ccda2339f37dull},
      {"jmb/edf/agg1", 0xd79012328e2bb46aull},
      {"jmb/edf/agg4", 0x20d7a721ea16b17full},
  };
  const traffic::Profile profile = traffic::make_profile("mixed", 8.0);
  const char* const policies[] = {"null", "fifo", "pf", "edf"};
  const AggLimits aggs[] = {AggLimits{}, AggLimits{4, 8000}};
  for (const bool jmb : {false, true}) {
    for (const char* policy : policies) {
      for (const AggLimits& agg : aggs) {
        const std::string name = std::string(jmb ? "jmb/" : "base/") +
                                 policy + "/agg" +
                                 std::to_string(agg.max_frames);
        traffic::PacketSource src(77, 5, profile, 0.25);
        std::unique_ptr<Scheduler> sched;
        if (std::string_view(policy) != "null") {
          sched = traffic::make_scheduler(policy);
        }
        Fnv epochs;
        MacParams p = golden_params(200);
        p.duration_s = 0.25;
        p.saturated = false;
        p.traffic = &src;
        p.scheduler = sched.get();
        p.agg = agg;
        add_hooks(p, epochs, /*churn=*/false);
        const MacReport r =
            jmb ? run_jmb_mac(4, 5, 4, golden_links(), p)
                : run_baseline_mac(5, golden_links(), p);
        expect_golden(want, name, report_digest(r, epochs));
      }
    }
  }
}

TEST(MacGolden, Resilient) {
  const GoldenTable want = {
      {"base/crashes", 0x8c373e9a376e87eaull},
      {"jmb_fault/crashes", 0x6aad87e0123bb846ull},
      {"jmb_ctrl/crashes", 0x981fe503c5503b69ull},
      {"jmb_ctrl_churn/crashes", 0x82fdbe19d0ded249ull},
      {"base/backhaul_total", 0x8225400913880902ull},
      {"jmb_fault/backhaul_total", 0xc5b8afa33cee4e7bull},
      {"jmb_ctrl/backhaul_total", 0xc5b8afa33cee4e7bull},
      {"jmb_ctrl_churn/backhaul_total", 0x8e5457f37514ec18ull},
      {"base/lead_crash", 0x985a2c38c0b77936ull},
      {"jmb_fault/lead_crash", 0xc5ddf80dca69836full},
      {"jmb_ctrl/lead_crash", 0xcd4c25fe090c5768ull},
      {"jmb_ctrl_churn/lead_crash", 0xa3074c05b664041aull},
      {"base/lossy", 0x9b316bfd51a50e27ull},
      {"jmb_fault/lossy", 0x9772a5b946967193ull},
      {"jmb_ctrl/lossy", 0x5e0559da48d8ff55ull},
      {"jmb_ctrl_churn/lossy", 0x0e02d59abc6d8ee1ull},
  };
  constexpr std::size_t kAps = 5;
  constexpr std::size_t kClients = 4;
  std::vector<fault::FaultEvent> starve;
  starve.push_back({fault::FaultKind::kBackhaulLoss, 0.1, 0, 0.1, 0.0, 1.0});
  std::vector<fault::FaultEvent> lossy;
  lossy.push_back({fault::FaultKind::kSyncLoss, 0.05, 1, 0.1, 0.0, 0.8});
  lossy.push_back({fault::FaultKind::kSyncCorrupt, 0.1, 3, 0.1, 0.8, 1.0});
  lossy.push_back({fault::FaultKind::kBackhaulLoss, 0.15, 0, 0.05, 0.0, 0.3});
  lossy.push_back({fault::FaultKind::kBackhaulDelay, 0.2, 0, 0.05, 2e-4, 1.0});
  const std::pair<const char*, fault::FaultPlan> plans[] = {
      {"crashes", fault::FaultPlan::random_crashes(25.0, 0.3, kAps, 0.04, 9)},
      {"backhaul_total", fault::FaultPlan(std::move(starve), 3)},
      {"lead_crash", fault::FaultPlan::single_crash(0, 0.1)},
      {"lossy", fault::FaultPlan(std::move(lossy), 5)},
  };
  const MaskedLinkStateFn links = golden_masked_links(reachable_snr_db);
  for (const auto& [plan_name, plan] : plans) {
    const std::string tag = std::string("/") + plan_name;
    const MacParams p = golden_params(300);
    Fnv epochs;
    MacParams churn = p;
    add_hooks(churn, epochs, /*churn=*/true);
    fault::FaultSession s1(plan, kAps, 300);
    fault::FaultSession s2(plan, kAps, 300);
    fault::FaultSession s3(plan, kAps, 300);
    fault::FaultSession s4(plan, kAps, 300);
    fault::ResilienceController c3(kAps);
    fault::ResilienceController c4(kAps);
    const MacReport base =
        run_baseline_mac_resilient(kAps, kClients, links, p, &s1);
    const MacReport jmb_fault =
        run_jmb_mac_resilient(kAps, kClients, kClients, links, p, &s2,
                              nullptr);
    const MacReport jmb_ctrl =
        run_jmb_mac_resilient(kAps, kClients, kClients, links, p, &s3, &c3);
    const MacReport jmb_churn = run_jmb_mac_resilient(
        kAps, kClients, kClients, links, churn, &s4, &c4);
    expect_golden(want, "base" + tag, report_digest(base));
    expect_golden(want, "jmb_fault" + tag, report_digest(jmb_fault));
    expect_golden(want, "jmb_ctrl" + tag, report_digest(jmb_ctrl));
    expect_golden(want, "jmb_ctrl_churn" + tag,
                  report_digest(jmb_churn, epochs));
  }
}

// ------------------------------------------------------- link_state calls
//
// Every MAC caller draws its link states from a pool whose cursor advances
// on each link_state call, so caching anything derived from a state must
// not skip, add or reorder calls. Each case pins the call count, an FNV-1a
// digest of the (client, mask) sequence and the report, over a pool of
// faded states that repeat as the real pools do. The table was recorded
// before the MAC cached effective SNRs across link states.

/// Sixteen Rayleigh-faded states around 5..30 dB, handed out in call
/// order; every call is folded into the sequence digest.
class RecordingPool {
 public:
  RecordingPool() {
    Rng rng(515);
    for (std::size_t i = 0; i < 16; ++i) {
      const double mean = from_db(5.0 + 25.0 * rng.uniform());
      rvec snr(phy::kNumDataCarriers);
      for (double& s : snr) s = mean * std::norm(rng.cgaussian());
      states_.push_back(std::move(snr));
    }
  }

  LinkState next(std::size_t client, const std::vector<std::uint8_t>& up) {
    calls_.add(static_cast<std::uint64_t>(client));
    calls_.add(static_cast<std::uint64_t>(up.size()));
    for (const std::uint8_t u : up) calls_.add(static_cast<std::uint64_t>(u));
    return LinkState{states_[count_++ % states_.size()]};
  }

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sequence() const { return calls_.value(); }

 private:
  std::vector<rvec> states_;
  std::size_t count_ = 0;
  Fnv calls_;
};

void expect_calls(const GoldenTable& want, const std::string& name,
                  const RecordingPool& pool, const MacReport& r) {
  expect_golden(want, name + "/count", pool.count());
  expect_golden(want, name + "/sequence", pool.sequence());
  expect_golden(want, name + "/report", report_digest(r));
}

TEST(MacLinkStateCalls, SequenceIsPinned) {
  const GoldenTable want = {
      {"jmb_saturated/count", 137},
      {"jmb_saturated/sequence", 0xc6a716fad1f5ad64ull},
      {"jmb_saturated/report", 0x45880c6be7d46914ull},
      {"jmb_pf_traffic/count", 458},
      {"jmb_pf_traffic/sequence", 0xd5becf4e80a890e1ull},
      {"jmb_pf_traffic/report", 0x924df697752f500cull},
      {"jmb_resilient/count", 117},
      {"jmb_resilient/sequence", 0x1a59ab541e5a6623ull},
      {"jmb_resilient/report", 0xf689abdbdee573d8ull},
  };
  const auto plain = [](RecordingPool& pool) -> LinkStateFn {
    return [&pool](std::size_t c) { return pool.next(c, {}); };
  };
  {
    RecordingPool pool;
    const MacReport r = run_jmb_mac(4, 6, 4, plain(pool), golden_params(400));
    expect_calls(want, "jmb_saturated", pool, r);
  }
  {
    // PF asks the rate hint of every backlogged client before each pick.
    RecordingPool pool;
    traffic::PacketSource src(78, 5, traffic::make_profile("mixed", 8.0),
                              0.25);
    const std::unique_ptr<Scheduler> pf = traffic::make_scheduler("pf");
    MacParams p = golden_params(401);
    p.duration_s = 0.25;
    p.saturated = false;
    p.traffic = &src;
    p.scheduler = pf.get();
    const MacReport r = run_jmb_mac(4, 5, 4, plain(pool), p);
    expect_calls(want, "jmb_pf_traffic", pool, r);
  }
  {
    RecordingPool pool;
    const fault::FaultPlan plan =
        fault::FaultPlan::random_crashes(25.0, 0.3, 5, 0.04, 9);
    fault::FaultSession session(plan, 5, 402);
    fault::ResilienceController ctrl(5);
    const MaskedLinkStateFn masked =
        [&pool](std::size_t c, const std::vector<std::uint8_t>& up) {
          return pool.next(c, up);
        };
    const MacReport r = run_jmb_mac_resilient(5, 4, 4, masked,
                                              golden_params(402), &session,
                                              &ctrl);
    expect_calls(want, "jmb_resilient", pool, r);
  }
}

}  // namespace
}  // namespace jmb::net
