// Fault-injection & resilience subsystem: plan parsing and round-trips,
// session timelines and trial-scoped determinism, the controller's health
// state machine, masked precoding, and end-to-end detection/failover
// through the sample-level engine and the resilient MAC variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "chan/medium.h"
#include "core/link_model.h"
#include "core/precoder.h"
#include "engine/pipeline.h"
#include "engine/system.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "fault/resilience.h"
#include "golden_digest.h"
#include "net/mac.h"
#include "obs/json.h"
#include "phy/workspace.h"
#include "rate/effective_snr.h"

namespace jmb {
namespace {

/// APs of `n_aps` the session has down.
std::size_t aps_down(const fault::FaultSession& s, std::size_t n_aps) {
  std::size_t n = 0;
  for (std::size_t ap = 0; ap < n_aps; ++ap) n += s.ap_down(ap);
  return n;
}

/// APs currently in joint transmissions.
std::size_t active_count(const fault::ResilienceController& ctrl) {
  std::size_t n = 0;
  for (const std::uint8_t a : ctrl.active()) n += a;
  return n;
}

// ---------------------------------------------------------------- plans

TEST(FaultPlan, KindNamesRoundTrip) {
  const fault::FaultKind kinds[] = {
      fault::FaultKind::kApCrash,       fault::FaultKind::kApRestart,
      fault::FaultKind::kSyncLoss,      fault::FaultKind::kSyncCorrupt,
      fault::FaultKind::kPhaseJump,     fault::FaultKind::kCfoStep,
      fault::FaultKind::kStaleChannel,  fault::FaultKind::kBackhaulLoss,
      fault::FaultKind::kBackhaulDelay,
  };
  // Each kind's name as to_json writes it reads back as that kind.
  for (const fault::FaultKind k : kinds) {
    const fault::FaultPlan plan({{k, 0.5, 0, 0.0, 0.0, 1.0}}, /*seed=*/1);
    std::string err;
    const obs::JsonValue doc = obs::parse_json(plan.to_json(), &err);
    ASSERT_TRUE(err.empty()) << err;
    const fault::FaultPlan back = fault::FaultPlan::from_json(doc, &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back.events()[0].kind, k);
  }
  fault::FaultKind out{};
  EXPECT_FALSE(fault::fault_kind_from_name("flux_capacitor", out));
}

TEST(FaultPlan, JsonRoundTrip) {
  std::vector<fault::FaultEvent> events;
  events.push_back({fault::FaultKind::kSyncLoss, 0.5, 1, 0.25, 0.0, 0.4});
  events.push_back({fault::FaultKind::kApCrash, 0.1, 2, 1.5, 0.0, 1.0});
  events.push_back({fault::FaultKind::kPhaseJump, 0.9, 3, 0.0, 1.25, 1.0});
  const fault::FaultPlan plan(std::move(events), /*seed=*/42);

  std::string err;
  const obs::JsonValue doc = obs::parse_json(plan.to_json(), &err);
  ASSERT_TRUE(err.empty()) << err;
  const fault::FaultPlan back = fault::FaultPlan::from_json(doc, &err);
  ASSERT_TRUE(err.empty()) << err;

  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.seed(), 42u);
  // Sorted by time on construction; the round-trip preserves that order.
  EXPECT_EQ(back.events()[0].kind, fault::FaultKind::kApCrash);
  EXPECT_DOUBLE_EQ(back.events()[0].t_s, 0.1);
  EXPECT_EQ(back.events()[0].ap, 2u);
  EXPECT_DOUBLE_EQ(back.events()[0].duration_s, 1.5);
  EXPECT_EQ(back.events()[1].kind, fault::FaultKind::kSyncLoss);
  EXPECT_DOUBLE_EQ(back.events()[1].probability, 0.4);
  EXPECT_EQ(back.events()[2].kind, fault::FaultKind::kPhaseJump);
  EXPECT_DOUBLE_EQ(back.events()[2].magnitude, 1.25);
}

TEST(FaultPlan, ParseRejectsMalformedDocuments) {
  const char* bad[] = {
      R"(42)",                                                  // not an object
      R"({"schema": "jmb.other.v9", "events": []})",            // wrong schema
      R"({"schema": "jmb.fault_plan.v1"})",                     // no events
      R"({"events": [{"kind": "warp_core", "t": 0}]})",         // unknown kind
      R"({"events": [{"kind": "ap_crash", "t": -1}]})",         // negative t
      R"({"events": [{"kind": "ap_crash"}]})",                  // missing t
      R"({"events": [{"kind": "sync_loss", "t": 0, "probability": 1.5}]})",
  };
  for (const char* text : bad) {
    std::string parse_err;
    const obs::JsonValue doc = obs::parse_json(text, &parse_err);
    std::string err;
    const fault::FaultPlan plan = fault::FaultPlan::from_json(doc, &err);
    EXPECT_TRUE(plan.empty()) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
}

TEST(FaultPlan, ParseRejectsOutOfRangeNumbers) {
  // Each document names the field the rejection must point at.
  const std::pair<const char*, const char*> bad[] = {
      {R"({"seed": 1e30, "events": []})", "'seed'"},
      {R"({"events": [{"kind": "ap_crash", "t": 0, "ap": 1e300}]})", "'ap'"},
      {R"({"events": [{"kind": "ap_crash", "t": 0, "ap": 1.5}]})", "'ap'"},
      {R"({"events": [{"kind": "ap_crash", "t": 1e999}]})", "'t'"},
      {R"({"events": [{"kind": "phase_jump", "t": 0, "magnitude": 1e999}]})",
       "'magnitude'"},
      {R"({"events": [{"kind": "ap_crash", "t": 0, "duration": 1e999}]})",
       "'duration'"},
  };
  for (const auto& [text, field] : bad) {
    std::string parse_err;
    const obs::JsonValue doc = obs::parse_json(text, &parse_err);
    ASSERT_TRUE(parse_err.empty()) << text << ": " << parse_err;
    std::string err;
    const fault::FaultPlan plan = fault::FaultPlan::from_json(doc, &err);
    EXPECT_TRUE(plan.empty()) << text;
    EXPECT_NE(err.find(field), std::string::npos) << text << " -> " << err;
    if (std::string_view(field) != "'seed'") {
      EXPECT_NE(err.find("events[0]"), std::string::npos) << err;
    }
  }
}

TEST(FaultPlan, WindowEndSemantics) {
  const fault::FaultPlan open = fault::FaultPlan::single_crash(1, 2.0);
  EXPECT_EQ(open.events()[0].end_s(), std::numeric_limits<double>::infinity());
  const fault::FaultPlan timed =
      fault::FaultPlan::single_crash(1, 2.0, /*outage_s=*/0.5);
  EXPECT_DOUBLE_EQ(timed.events()[0].end_s(), 2.5);
  // Point events never deactivate on their own.
  const fault::FaultEvent jump{fault::FaultKind::kPhaseJump, 1.0, 0, 3.0, 0.1,
                               1.0};
  EXPECT_EQ(jump.end_s(), std::numeric_limits<double>::infinity());
}

TEST(FaultPlan, RandomCrashesAreSeedDeterministic) {
  const auto a = fault::FaultPlan::random_crashes(20.0, 1.0, 4, 0.1, 7);
  const auto b = fault::FaultPlan::random_crashes(20.0, 1.0, 4, 0.1, 7);
  const auto c = fault::FaultPlan::random_crashes(20.0, 1.0, 4, 0.1, 8);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 5u);  // ~20 expected
  bool all_equal_c = a.size() == c.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, fault::FaultKind::kApCrash);
    EXPECT_DOUBLE_EQ(a.events()[i].t_s, b.events()[i].t_s);
    EXPECT_EQ(a.events()[i].ap, b.events()[i].ap);
    EXPECT_LT(a.events()[i].t_s, 1.0);
    EXPECT_LT(a.events()[i].ap, 4u);
    if (all_equal_c && a.events()[i].t_s != c.events()[i].t_s) {
      all_equal_c = false;
    }
  }
  EXPECT_FALSE(all_equal_c) << "different seeds produced identical schedules";
  EXPECT_TRUE(fault::FaultPlan::random_crashes(0.0, 1.0, 4, 0.1, 7).empty());
}

// -------------------------------------------------------------- sessions

TEST(FaultSession, CrashWindowTimeline) {
  const fault::FaultPlan plan =
      fault::FaultPlan::single_crash(1, 1.0, /*outage_s=*/2.0);
  fault::FaultSession s(plan, 3, /*trial_seed=*/1);
  s.advance_to(0.5);
  EXPECT_FALSE(s.ap_down(1));
  EXPECT_EQ(s.events_applied(), 0u);
  s.advance_to(1.0);
  EXPECT_TRUE(s.ap_down(1));
  EXPECT_FALSE(s.ap_down(0));
  EXPECT_EQ(aps_down(s, 3), 1u);
  EXPECT_EQ(s.events_applied(), 1u);
  EXPECT_DOUBLE_EQ(s.last_fault_t(), 1.0);
  s.advance_to(2.9);
  EXPECT_TRUE(s.ap_down(1));
  s.advance_to(3.0);
  EXPECT_FALSE(s.ap_down(1));
  EXPECT_EQ(aps_down(s, 3), 0u);
}

TEST(FaultSession, RestartPointEventRevivesCrashedAp) {
  std::vector<fault::FaultEvent> events;
  events.push_back({fault::FaultKind::kApCrash, 1.0, 0, 0.0, 0.0, 1.0});
  events.push_back({fault::FaultKind::kApRestart, 2.0, 0, 0.0, 0.0, 1.0});
  const fault::FaultPlan plan(std::move(events), 1);
  fault::FaultSession s(plan, 2, 1);
  s.advance_to(1.5);
  EXPECT_TRUE(s.ap_down(0));
  s.advance_to(2.5);
  EXPECT_FALSE(s.ap_down(0));
}

TEST(FaultSession, ClockIsMonotone) {
  const fault::FaultPlan plan = fault::FaultPlan::single_crash(0, 1.0);
  fault::FaultSession s(plan, 2, 1);
  s.advance_to(2.0);
  EXPECT_TRUE(s.ap_down(0));
  s.advance_to(0.5);  // going backwards must be a no-op
  EXPECT_GE(s.now(), 2.0);
  EXPECT_TRUE(s.ap_down(0));
}

TEST(FaultSession, SyncLossDrawsAreTrialScoped) {
  std::vector<fault::FaultEvent> events;
  events.push_back({fault::FaultKind::kSyncLoss, 0.0, 1, 10.0, 0.0, 0.5});
  const fault::FaultPlan plan(std::move(events), 3);

  const auto draws = [&plan](std::uint64_t trial) {
    fault::FaultSession s(plan, 2, trial);
    s.advance_to(1.0);
    std::vector<bool> out;
    out.reserve(128);
    for (int i = 0; i < 128; ++i) out.push_back(s.sync_header_lost(1));
    return out;
  };
  const auto a = draws(5), b = draws(5), c = draws(6);
  EXPECT_EQ(a, b);  // same (plan, trial) -> identical decision stream
  EXPECT_NE(a, c);  // different trials decorrelate (P[equal] = 2^-128)
  // The p = 0.5 coin actually flips both ways.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST(FaultSession, QuietPlanNeverDrawsOrImpairs) {
  // A crash-only plan must leave every probabilistic query inert: no loss,
  // no corruption, no backhaul trouble, regardless of how often asked.
  const fault::FaultPlan plan = fault::FaultPlan::single_crash(1, 0.5);
  fault::FaultSession s(plan, 3, 9);
  for (int i = 0; i < 50; ++i) {
    s.advance_to(static_cast<double>(i) * 0.05);
    EXPECT_FALSE(s.sync_header_lost(2));
    EXPECT_EQ(s.sync_header_phase_error(2), 0.0);
    EXPECT_FALSE(s.backhaul_packet_lost());
    EXPECT_EQ(s.backhaul_delay_s(), 0.0);
    EXPECT_FALSE(s.stale_channel());
  }
}

/// Digest of every query answer after each advance_to on a 1/64 s grid
/// over [0, t_end]. Asks one AP past `n_aps` too, which must stay inert.
std::uint64_t session_timeline_digest(const fault::FaultPlan& plan,
                                      std::size_t n_aps,
                                      std::uint64_t trial_seed,
                                      double t_end) {
  fault::FaultSession s(plan, n_aps, trial_seed);
  golden::Fnv d;
  for (double t = 0.0; t <= t_end; t += 1.0 / 64) {
    s.advance_to(t);
    for (std::size_t ap = 0; ap <= n_aps; ++ap) {
      d.add(static_cast<std::uint64_t>(s.ap_down(ap)));
      d.add(static_cast<std::uint64_t>(s.sync_header_lost(ap)));
      d.add(s.sync_header_phase_error(ap));
    }
    d.add(static_cast<std::uint64_t>(s.stale_channel()));
    d.add(static_cast<std::uint64_t>(s.backhaul_packet_lost()));
    d.add(s.backhaul_delay_s());
    d.add(static_cast<std::uint64_t>(s.events_applied()));
    d.add(s.last_fault_t());
  }
  return d.value();
}

TEST(FaultGolden, SessionTimeline) {
  using fault::FaultKind;
  const golden::GoldenTable want = {
      {"crashes/1", 0xe655d27bb5206a84ull},
      {"sync/1", 0x1ff9cdfbe9a7a0e8ull},
      {"world/1", 0x3b695ee97393032bull},
      {"crashes/2", 0xe655d27bb5206a84ull},
      {"sync/2", 0x65a54476c0838b57ull},
      {"world/2", 0x6b35fd731109c132ull},
      {"random/1", 0x779dbbb5cadc75fbull},
      {"random/2", 0xaad5c0641361edfcull},
      {"random/3", 0x9e7d0f586f880aa6ull},
      {"random/4", 0x5b108a807289721dull},
      {"random/5", 0xd2b03118c7a5f8c8ull},
      {"random/6", 0x1ceb10cd112bc43cull},
      {"random/7", 0x9d09aef966977a38ull},
      {"random/8", 0x51fafc17b9d07d3aull},
  };
  // Crash windows: overlapping on one AP (the first one's end edge brings
  // the AP up while the second is still open), back-to-back handover at
  // 0.5 s, a restart inside a window, an open-ended crash and an AP past
  // n_aps.
  const fault::FaultPlan crashes(
      {{FaultKind::kApCrash, 0.25, 1, 0.5, 0.0, 1.0},
       {FaultKind::kApCrash, 0.5, 1, 0.5, 0.0, 1.0},
       {FaultKind::kApCrash, 0.25, 2, 0.25, 0.0, 1.0},
       {FaultKind::kApCrash, 0.5, 2, 0.25, 0.0, 1.0},
       {FaultKind::kApCrash, 0.125, 3, 1.0, 0.0, 1.0},
       {FaultKind::kApRestart, 0.375, 3, 0.0, 0.0, 1.0},
       {FaultKind::kApRestart, 0.4, 0, 0.0, 0.0, 1.0},
       {FaultKind::kApCrash, 1.1, 0, 0.0, 0.0, 1.0},
       {FaultKind::kApCrash, 0.3, 7, 0.2, 0.0, 1.0},
       {FaultKind::kApRestart, 0.6, 7, 0.0, 0.0, 1.0}},
      5);
  // Sync windows: two overlapping loss windows on AP 1 (the inner one's
  // end clears the slot), overlapping corruption on AP 2, loss on an AP
  // past n_aps, and point events that only count as applied.
  const fault::FaultPlan sync(
      {{FaultKind::kSyncLoss, 0.25, 1, 0.75, 0.0, 0.5},
       {FaultKind::kSyncLoss, 0.5, 1, 0.25, 0.0, 0.9},
       {FaultKind::kSyncCorrupt, 0.125, 2, 0.5, 0.3, 1.0},
       {FaultKind::kSyncCorrupt, 0.25, 2, 0.75, 0.1, 0.5},
       {FaultKind::kSyncLoss, 0.2, 9, 0.5, 0.0, 1.0},
       {FaultKind::kSyncCorrupt, 0.7, 1, 0.0, 0.2, 0.25},
       {FaultKind::kPhaseJump, 0.3, 1, 0.0, 0.7, 1.0},
       {FaultKind::kCfoStep, 0.33, 2, 0.0, 150.0, 1.0},
       {FaultKind::kPhaseJump, 0.9, 8, 0.0, 0.2, 1.0}},
      6);
  // Nested stale windows plus an open-ended one; backhaul loss and delay
  // windows that hand over at one instant.
  const fault::FaultPlan world(
      {{FaultKind::kStaleChannel, 0.25, 0, 1.0, 0.0, 1.0},
       {FaultKind::kStaleChannel, 0.5, 0, 0.25, 0.0, 1.0},
       {FaultKind::kStaleChannel, 1.5, 0, 0.0, 0.0, 1.0},
       {FaultKind::kBackhaulLoss, 0.25, 0, 0.25, 0.0, 0.3},
       {FaultKind::kBackhaulLoss, 0.5, 0, 0.25, 0.0, 0.7},
       {FaultKind::kBackhaulDelay, 0.25, 0, 0.25, 0.002, 1.0},
       {FaultKind::kBackhaulDelay, 0.5, 0, 0.5, 0.005, 1.0},
       {FaultKind::kBackhaulDelay, 0.6, 0, 0.1, 0.001, 1.0}},
      7);
  for (const std::uint64_t trial : {1ull, 2ull}) {
    const std::string tag = "/" + std::to_string(trial);
    golden::expect_golden(want, "crashes" + tag,
                          session_timeline_digest(crashes, 4, trial, 2.0));
    golden::expect_golden(want, "sync" + tag,
                          session_timeline_digest(sync, 4, trial, 2.0));
    golden::expect_golden(want, "world" + tag,
                          session_timeline_digest(world, 4, trial, 2.0));
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const fault::FaultPlan plan =
        fault::FaultPlan::random_crashes(8.0, 0.3, 5, 0.1, seed);
    golden::expect_golden(want, "random/" + std::to_string(seed),
                          session_timeline_digest(plan, 5, seed, 0.5));
  }
}

TEST(FaultSession, PointEventsReachTheHost) {
  std::vector<fault::FaultEvent> events;
  events.push_back({fault::FaultKind::kPhaseJump, 0.1, 1, 0.0, 0.7, 1.0});
  events.push_back({fault::FaultKind::kCfoStep, 0.2, 2, 0.0, 150.0, 1.0});
  events.push_back({fault::FaultKind::kApCrash, 0.3, 0, 0.1, 0.0, 1.0});
  events.push_back({fault::FaultKind::kApCrash, 0.5, 1, 0.0, 0.0, 1.0});
  const fault::FaultPlan plan(std::move(events), 1);
  fault::FaultSession s(plan, 3, 1);
  EXPECT_TRUE(s.advance_to(0.05).empty());

  // One pump hands back every event it began, in plan order.
  const std::span<const fault::FaultEvent> begun = s.advance_to(0.35);
  ASSERT_EQ(begun.size(), 3u);
  EXPECT_EQ(begun.data(), plan.events().data());
  EXPECT_EQ(begun[0].kind, fault::FaultKind::kPhaseJump);
  EXPECT_EQ(begun[0].ap, 1u);
  EXPECT_DOUBLE_EQ(begun[0].magnitude, 0.7);
  EXPECT_EQ(begun[1].kind, fault::FaultKind::kCfoStep);
  EXPECT_EQ(begun[1].ap, 2u);
  EXPECT_DOUBLE_EQ(begun[1].magnitude, 150.0);
  EXPECT_EQ(begun[2].kind, fault::FaultKind::kApCrash);
  EXPECT_TRUE(s.ap_down(0));

  // An end edge alone begins nothing; the crash shows through ap_down.
  EXPECT_TRUE(s.advance_to(0.45).empty());
  EXPECT_FALSE(s.ap_down(0));
  EXPECT_TRUE(s.advance_to(0.2).empty());  // going backwards
  const std::span<const fault::FaultEvent> last = s.advance_to(1.0);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(&last[0], &plan.events()[3]);
  EXPECT_TRUE(s.ap_down(1));
  EXPECT_EQ(s.events_applied(), 4u);
}

// ------------------------------------------------------------ controller

TEST(Resilience, MissesQuarantineAndStampDetectLatency) {
  fault::ResilienceController ctrl(4);
  ctrl.note_fault(1.0);
  ctrl.on_sync_result(2, false, 0.0, 1.01);
  ctrl.on_sync_result(2, false, 0.0, 1.02);
  EXPECT_FALSE(ctrl.quarantined(2));
  ctrl.on_sync_result(2, false, 0.0, 1.03);
  EXPECT_TRUE(ctrl.quarantined(2));
  EXPECT_EQ(ctrl.health(2), fault::ApHealth::kQuarantined);
  EXPECT_EQ(ctrl.active()[2], 0);
  EXPECT_EQ(active_count(ctrl), 3u);
  EXPECT_TRUE(ctrl.any_quarantined());
  EXPECT_TRUE(ctrl.needs_remeasure());
  EXPECT_EQ(ctrl.quarantine_events(), 1u);
  EXPECT_NEAR(ctrl.last_detect_latency_s(), 0.03, 1e-12);
}

TEST(Resilience, ResidualStrikesQuarantine) {
  fault::ResilienceController ctrl(3);
  for (int i = 0; i < 3; ++i) {
    ctrl.on_sync_result(1, true, /*residual_rad=*/0.9, 0.1 * i);
  }
  EXPECT_TRUE(ctrl.quarantined(1));
  // A clean header in between resets the streak.
  fault::ResilienceController ctrl2(3);
  ctrl2.on_sync_result(1, true, 0.9, 0.0);
  ctrl2.on_sync_result(1, true, 0.9, 0.1);
  ctrl2.on_sync_result(1, true, 0.01, 0.2);
  ctrl2.on_sync_result(1, true, 0.9, 0.3);
  ctrl2.on_sync_result(1, true, 0.9, 0.4);
  EXPECT_FALSE(ctrl2.quarantined(1));
}

TEST(Resilience, ProbationReadmissionNeedsRemeasure) {
  fault::ResilienceController ctrl(3);
  for (int i = 0; i < 3; ++i) ctrl.on_sync_result(1, false, 0.0, 0.1);
  ASSERT_TRUE(ctrl.quarantined(1));
  ctrl.on_remeasure(0.2);  // quarantined (not probation): stays out
  EXPECT_TRUE(ctrl.quarantined(1));
  // Evidence returns: two clean headers move it to probation...
  ctrl.on_sync_result(1, true, 0.0, 0.3);
  ctrl.on_sync_result(1, true, 0.0, 0.4);
  EXPECT_EQ(ctrl.health(1), fault::ApHealth::kProbation);
  EXPECT_EQ(ctrl.active()[1], 0);  // probation still sits out
  EXPECT_TRUE(ctrl.needs_remeasure());
  // ...and the next re-measurement epoch readmits it.
  ctrl.on_remeasure(0.5);
  EXPECT_EQ(ctrl.health(1), fault::ApHealth::kHealthy);
  EXPECT_EQ(ctrl.active()[1], 1);
  EXPECT_FALSE(ctrl.needs_remeasure());
}

TEST(Resilience, RecoveryLatencyStampsOncePerQuarantine) {
  fault::ResilienceController ctrl(3);
  ctrl.note_fault(1.0);
  for (int i = 0; i < 3; ++i) ctrl.on_sync_result(2, false, 0.0, 1.05);
  ctrl.on_recovered(1.25);
  EXPECT_EQ(ctrl.recoveries(), 1u);
  EXPECT_NEAR(ctrl.last_recover_latency_s(), 0.25, 1e-12);
  ctrl.on_recovered(2.0);  // idempotent until the next quarantine
  EXPECT_EQ(ctrl.recoveries(), 1u);
  EXPECT_NEAR(ctrl.last_recover_latency_s(), 0.25, 1e-12);
}

TEST(Resilience, LeadEvidenceIsIgnored) {
  fault::ResilienceController ctrl(3);
  for (int i = 0; i < 10; ++i) ctrl.on_sync_result(0, false, 0.0, 0.1);
  EXPECT_FALSE(ctrl.quarantined(0));
  // Out-of-range APs are ignored too, not UB.
  ctrl.on_sync_result(17, false, 0.0, 0.1);
}

TEST(Resilience, MarkDownAndLeadElection) {
  fault::ResilienceController ctrl(4);
  EXPECT_EQ(ctrl.elect_lead(0), 0u);
  ctrl.mark_down(0, 1.0);
  EXPECT_TRUE(ctrl.quarantined(0));
  EXPECT_EQ(ctrl.quarantine_events(), 1u);
  ctrl.mark_down(0, 2.0);  // only healthy APs can be quarantined again
  EXPECT_EQ(ctrl.quarantine_events(), 1u);
  EXPECT_EQ(ctrl.elect_lead(0), 1u);
  EXPECT_EQ(ctrl.elect_lead(2), 2u);  // preferred survivor keeps the role
  ctrl.mark_down(1, 3.0);
  ctrl.mark_down(2, 3.0);
  ctrl.mark_down(3, 3.0);
  EXPECT_EQ(ctrl.elect_lead(0), 4u);  // no survivors
}

// -------------------------------------------------------- masked precoder

TEST(MaskedPrecoder, FullMaskIsBitwiseIdenticalToBuild) {
  Rng rng(11);
  const auto h = core::random_channel_set(3, 4, rng);
  Workspace ws;
  const auto full = core::Precoder::build(h);
  const std::vector<std::uint8_t> mask(4, 1);
  const auto masked = core::Precoder::build_masked(h, mask, ws);
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(masked.has_value());
  EXPECT_EQ(full->scale(), masked->scale());  // bitwise, not approximate
  for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
    const CMatrix& a = full->weights(k);
    const CMatrix& b = masked->weights(k);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      for (std::size_t c = 0; c < a.cols(); ++c) {
        EXPECT_EQ(a(r, c), b(r, c)) << "k=" << k;
      }
    }
  }
}

TEST(MaskedPrecoder, ExcludedApsGetZeroRows) {
  Rng rng(12);
  const auto h = core::random_channel_set(3, 5, rng);
  Workspace ws;
  const std::vector<std::uint8_t> mask{1, 0, 1, 1, 0};
  const auto p = core::Precoder::build_masked(h, mask, ws);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->n_tx(), 5u);
  EXPECT_EQ(p->n_streams(), 3u);
  EXPECT_GT(p->scale(), 0.0);
  for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
    const CMatrix& w = p->weights(k);
    for (std::size_t c = 0; c < w.cols(); ++c) {
      EXPECT_EQ(w(1, c), cplx{}) << "k=" << k;
      EXPECT_EQ(w(4, c), cplx{}) << "k=" << k;
    }
  }
  // The active rows are exactly a reduced-H build, expanded back.
  core::ChannelMatrixSet reduced(3, 3);
  for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
    std::size_t out = 0;
    for (std::size_t a = 0; a < 5; ++a) {
      if (!mask[a]) continue;
      for (std::size_t c = 0; c < 3; ++c) reduced.at(k)(c, out) = h.at(k)(c, a);
      ++out;
    }
  }
  const auto small = core::Precoder::build(reduced);
  ASSERT_TRUE(small.has_value());
  EXPECT_EQ(p->scale(), small->scale());
  const std::size_t active_rows[] = {0, 2, 3};
  for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_EQ(p->weights(k)(active_rows[r], c), small->weights(k)(r, c));
      }
    }
  }
}

TEST(MaskedPrecoder, TooFewSurvivorsReturnsNullopt) {
  Rng rng(13);
  const auto h = core::random_channel_set(3, 4, rng);
  Workspace ws;
  const std::vector<std::uint8_t> mask{1, 0, 1, 0};  // 2 antennas, 3 streams
  EXPECT_FALSE(core::Precoder::build_masked(h, mask, ws).has_value());
}

// ----------------------------------------------------- engine integration

core::JointResult engine_joint_once(bool with_idle_fault) {
  core::SystemParams p;
  p.n_aps = 2;
  p.n_clients = 2;
  p.seed = 123;
  const double gain = core::JmbSystem::gain_for_snr_db(25.0, 1.0);
  core::JmbSystem sys(p, {{gain, gain}, {gain, gain}});

  const fault::FaultPlan plan =
      fault::FaultPlan::single_crash(1, /*t_s=*/1e9);  // beyond the horizon
  fault::FaultSession session(plan, 2, 55);
  fault::ResilienceController ctrl(2);
  if (with_idle_fault) {
    sys.attach_fault(&session);
    sys.attach_resilience(&ctrl);
  }
  if (!sys.run_measurement()) return {};
  sys.advance_time(5e-3);
  phy::ByteVec a(180, 0x5A), b(180, 0xC3);
  return sys.transmit_joint({a, b},
                            {phy::Modulation::kQpsk, phy::CodeRate::kHalf});
}

TEST(EngineFaults, IdlePlanIsBitIdenticalToNoPlan) {
  const core::JointResult plain = engine_joint_once(false);
  const core::JointResult faulted = engine_joint_once(true);
  ASSERT_EQ(plain.per_client.size(), faulted.per_client.size());
  EXPECT_EQ(plain.slaves_synced, faulted.slaves_synced);
  EXPECT_EQ(plain.precoder_scale, faulted.precoder_scale);  // bitwise
  for (std::size_t c = 0; c < plain.per_client.size(); ++c) {
    EXPECT_EQ(plain.per_client[c].ok, faulted.per_client[c].ok);
    EXPECT_EQ(plain.per_client[c].psdu, faulted.per_client[c].psdu);
    EXPECT_EQ(plain.per_client[c].evm_snr_db, faulted.per_client[c].evm_snr_db);
  }
}

TEST(EngineFaults, CrashQuarantineRemeasureRecover) {
  core::SystemParams p;
  p.n_aps = 4;
  p.n_clients = 3;
  p.seed = 77;
  const double gain = core::JmbSystem::gain_for_snr_db(25.0, 1.0);
  core::JmbSystem sys(
      p, std::vector<std::vector<double>>(3, std::vector<double>(4, gain)));
  ASSERT_TRUE(sys.run_measurement());
  sys.advance_time(2e-3);

  // Crash slave AP 2 just ahead of the next joint transmission.
  const fault::FaultPlan plan =
      fault::FaultPlan::single_crash(2, sys.now() + 1e-4);
  fault::FaultSession session(plan, 4, 5);
  fault::ResilienceController ctrl(4);
  sys.attach_fault(&session);
  sys.attach_resilience(&ctrl);
  sys.advance_time(1e-3);

  phy::ByteVec pa(150, 0x11), pb(150, 0x22), pc(150, 0x33);
  const phy::Mcs mcs{phy::Modulation::kQpsk, phy::CodeRate::kHalf};
  const core::JointResult r1 = sys.transmit_joint({pa, pb, pc}, mcs);
  // More headerless frames, up to the controller's miss threshold.
  for (std::size_t i = 1; i < fault::kSyncMissThreshold; ++i) {
    (void)sys.transmit_joint({pa, pb, pc}, mcs);
  }
  // The crashed slave sent no sync header: only 2 of 3 slaves synced, and
  // the controller quarantined it from the missing-evidence stream.
  EXPECT_EQ(r1.slaves_synced, 2u);
  EXPECT_TRUE(ctrl.quarantined(2));
  EXPECT_TRUE(ctrl.needs_remeasure());

  // Re-measure on the surviving set: the masked precoder carries zero
  // weight on the dead AP, and joint service continues 3-on-3.
  ASSERT_TRUE(sys.run_measurement());
  EXPECT_FALSE(ctrl.needs_remeasure());
  sys.advance_time(2e-3);
  const core::JointResult r2 = sys.transmit_joint({pa, pb, pc}, mcs);
  EXPECT_EQ(r2.slaves_synced, 2u);
  ASSERT_EQ(r2.per_client.size(), 3u);
  for (const auto& c : r2.per_client) {
    EXPECT_TRUE(c.ok);
    // 3 surviving APs zero-forcing 3 streams leaves no array-gain margin,
    // so the post-beamforming SNR is modest — but frames must decode.
    EXPECT_GT(c.evm_snr_db, 0.0);
  }
  EXPECT_GE(ctrl.recoveries(), 1u);
  EXPECT_GT(ctrl.last_detect_latency_s(), 0.0);
}

TEST(EngineFaults, PhaseJumpShowsInTheSlaveResidual) {
  // A carrier-phase hit on slave AP 1 rotates everything its receiver
  // hears, so the next sync header's phase walk strays from the CFO
  // prediction by the jump: a strike for the resilience controller.
  core::SystemParams p;
  p.n_aps = 2;
  p.n_clients = 2;
  p.seed = 31;
  const double gain = core::JmbSystem::gain_for_snr_db(25.0, 1.0);
  core::JmbSystem sys(
      p, std::vector<std::vector<double>>(2, std::vector<double>(2, gain)));
  ASSERT_TRUE(sys.run_measurement());
  const phy::ByteVec pa(100, 0x5a), pb(100, 0xa5);
  const phy::Mcs mcs{phy::Modulation::kQpsk, phy::CodeRate::kHalf};
  for (int i = 0; i < 2; ++i) {
    sys.advance_time(1e-3);
    (void)sys.transmit_joint({pa, pb}, mcs);
  }
  const core::SlavePhaseSync& slave = sys.state().slave_sync[0];
  ASSERT_LT(slave.last_residual_rad(), fault::kResidualThresholdRad);

  std::vector<fault::FaultEvent> events;
  events.push_back(
      {fault::FaultKind::kPhaseJump, sys.now() + 1e-4, 1, 0.0, 1.0, 1.0});
  const fault::FaultPlan plan(std::move(events), 1);
  fault::FaultSession session(plan, 2, 1);
  sys.attach_fault(&session);
  sys.advance_time(1e-3);
  (void)sys.transmit_joint({pa, pb}, mcs);
  EXPECT_EQ(session.events_applied(), 1u);
  EXPECT_GT(slave.last_residual_rad(), fault::kResidualThresholdRad);
}

TEST(EngineFaults, CfoStepKeepsThePhaseContinuous) {
  // Render one instant just before and just after a 100 Hz step at that
  // instant: the carrier's frequency changes there, its phase does not.
  constexpr double kStepAtS = 1.25e-3;
  chan::Medium medium({});
  const chan::NodeId tx = medium.add_node(
      {.ppm = 0.0, .phase_noise_linewidth_hz = 0.0, .seed = 1}, 0.0);
  const chan::NodeId rx = medium.add_node(
      {.ppm = 0.0, .phase_noise_linewidth_hz = 0.0, .seed = 2}, 0.0);
  medium.set_link(tx, rx,
                  {.gain = 1.0, .n_taps = 1, .tap_decay = 1.0, .rice_k = 1e9,
                   .delay_s = 0.0, .coherence_time_s = 0.25, .seed = 3});
  medium.transmit(tx, 0.0, cvec(20000, cplx{1.0, 0.0}));
  const cvec before = medium.receive(rx, kStepAtS, 1);
  medium.oscillator_mutable(tx).inject_cfo_step(100.0, kStepAtS);
  const cvec after = medium.receive(rx, kStepAtS, 1);
  ASSERT_GT(std::abs(before[0]), 0.5);
  EXPECT_NEAR(std::arg(after[0] * std::conj(before[0])), 0.0, 1e-9);
}

// ------------------------------------------------------------ MAC layer

net::MaskedLinkStateFn graded_links(double full_db, double reduced_db) {
  return [=](std::size_t, const std::vector<std::uint8_t>& mask) {
    std::size_t active = 0;
    for (const std::uint8_t m : mask) active += m;
    const double snr_db = active >= mask.size() ? full_db : reduced_db;
    return net::LinkState{rvec(phy::kNumDataCarriers, from_db(snr_db))};
  };
}

TEST(ResilientMac, MatchesPlainJmbMacWithoutFaults) {
  net::MacParams p;
  p.duration_s = 0.3;
  p.seed = 11;
  const net::MacReport plain = net::run_jmb_mac(
      4, 4, 4,
      [](std::size_t) {
        return net::LinkState{rvec(phy::kNumDataCarriers, from_db(25.0))};
      },
      p);
  const net::MacReport res = net::run_jmb_mac_resilient(
      4, 4, 4, graded_links(25.0, 25.0), p, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(plain.total_goodput_mbps, res.total_goodput_mbps);
  EXPECT_EQ(plain.joint_transmissions, res.joint_transmissions);
  EXPECT_EQ(res.quarantines, 0u);
  EXPECT_EQ(res.lead_elections, 0u);
}

TEST(ResilientMac, DetectsSlaveCrashAndRecovers) {
  net::MacParams p;
  p.duration_s = 1.0;
  p.seed = 21;
  const net::MacReport clean = net::run_jmb_mac_resilient(
      4, 4, 4, graded_links(25.0, 20.0), p, nullptr, nullptr);

  const fault::FaultPlan plan = fault::FaultPlan::single_crash(2, 0.3);
  fault::FaultSession session(plan, 4, 21);
  fault::ResilienceController ctrl(4);
  const net::MacReport r = net::run_jmb_mac_resilient(
      4, 4, 4, graded_links(25.0, 20.0), p, &session, &ctrl);

  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_EQ(r.quarantines, 1u);
  EXPECT_TRUE(ctrl.quarantined(2));
  // Detection is a few sync-header slots: fast on the MAC timescale.
  EXPECT_GT(r.mean_time_to_detect_s, 0.0);
  EXPECT_LT(r.mean_time_to_detect_s, 0.1);
  EXPECT_GE(r.mean_time_to_recover_s, r.mean_time_to_detect_s);
  // Degraded but nowhere near an outage: service continued on 3 APs.
  EXPECT_LT(r.total_goodput_mbps, clean.total_goodput_mbps);
  EXPECT_GT(r.total_goodput_mbps, 0.5 * clean.total_goodput_mbps);
}

TEST(ResilientMac, DeadLeadTriggersElection) {
  net::MacParams p;
  p.duration_s = 1.0;
  p.seed = 31;
  const fault::FaultPlan plan = fault::FaultPlan::single_crash(0, 0.3);
  fault::FaultSession session(plan, 4, 31);
  fault::ResilienceController ctrl(4);
  const net::MacReport r = net::run_jmb_mac_resilient(
      4, 4, 4, graded_links(25.0, 20.0), p, &session, &ctrl);
  EXPECT_GE(r.lead_elections, 1u);
  EXPECT_TRUE(ctrl.quarantined(0));
  EXPECT_GT(r.total_goodput_mbps, 0.0);  // service survived the lead
}

TEST(ResilientMac, RestartReadmitsAfterProbation) {
  net::MacParams p;
  p.duration_s = 1.2;
  p.seed = 41;
  p.coherence_time_s = 0.1;
  const fault::FaultPlan plan =
      fault::FaultPlan::single_crash(1, 0.3, /*outage_s=*/0.3);
  fault::FaultSession session(plan, 4, 41);
  fault::ResilienceController ctrl(4);
  const net::MacReport r = net::run_jmb_mac_resilient(
      4, 4, 4, graded_links(25.0, 20.0), p, &session, &ctrl);
  EXPECT_EQ(r.quarantines, 1u);
  // The AP restarted at t = 0.6; clean evidence walked it through
  // probation and a re-measurement epoch readmitted it.
  EXPECT_EQ(ctrl.health(1), fault::ApHealth::kHealthy);
  EXPECT_EQ(active_count(ctrl), 4u);
  EXPECT_GE(ctrl.recoveries(), 1u);
}

TEST(ResilientMac, BaselineReassociatesWithSurvivingAp) {
  // Client 0's best AP crashes; it falls back to the weaker survivor
  // instead of going dark — 802.11's per-AP independence.
  const std::vector<std::vector<double>> gains{{from_db(30.0), from_db(15.0)},
                                               {from_db(15.0), from_db(30.0)}};
  const auto links = [&gains](std::size_t c,
                              const std::vector<std::uint8_t>& up) {
    double best = 0.0;
    for (std::size_t a = 0; a < gains[c].size(); ++a) {
      if (up[a]) best = std::max(best, gains[c][a]);
    }
    return net::LinkState{rvec(phy::kNumDataCarriers, best)};
  };
  net::MacParams p;
  p.duration_s = 0.4;
  p.seed = 51;
  const net::MacReport clean =
      net::run_baseline_mac_resilient(2, 2, links, p, nullptr);
  const fault::FaultPlan plan = fault::FaultPlan::single_crash(0, 0.0);
  fault::FaultSession session(plan, 2, 51);
  const net::MacReport r =
      net::run_baseline_mac_resilient(2, 2, links, p, &session);
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_GT(r.per_client[0].delivered, 0u);
  EXPECT_GT(r.per_client[1].delivered, 0u);
  // The equal-share scheduler keeps packet counts level, but client 0's
  // 15 dB fallback link runs a slower rate, so total throughput drops.
  EXPECT_LT(r.total_goodput_mbps, clean.total_goodput_mbps);
}

TEST(ResilientMac, TotalBackhaulLossStarvesWithoutHanging) {
  std::vector<fault::FaultEvent> events;
  events.push_back({fault::FaultKind::kBackhaulLoss, 0.0, 0, 0.0, 0.0, 1.0});
  const fault::FaultPlan plan(std::move(events), 1);
  fault::FaultSession session(plan, 4, 61);
  net::MacParams p;
  p.duration_s = 0.2;
  p.seed = 61;
  const net::MacReport r = net::run_jmb_mac_resilient(
      4, 4, 4, graded_links(25.0, 20.0), p, &session, nullptr);
  // Every downlink packet died on the wire; the run still terminates.
  EXPECT_GT(r.backhaul_drops, 0u);
  EXPECT_DOUBLE_EQ(r.total_goodput_mbps, 0.0);
  EXPECT_EQ(r.joint_transmissions, 0u);
}

}  // namespace
}  // namespace jmb
