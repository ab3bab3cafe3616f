// Resilience curve — delivered throughput under AP failures, JMB vs the
// 802.11 baseline.
//
// Not a paper figure: the paper's testbed never kills a USRP mid-run.
// This bench answers the question the paper's architecture raises — joint
// transmission couples every AP into one precoder, so what does a crash
// cost, and how fast does the system shrink to the surviving set?
//
// Scenario A (graceful degradation): N+1 APs serve N clients; one slave
// AP crashes mid-run. The resilient MAC detects the sync-header loss,
// quarantines the AP, re-measures, and continues on a reduced-H precoder.
// Reported against two references from the same topology: the fault-free
// run and a run with the crashed AP masked from t = 0 (the "survivor
// floor" the faulted run should recover to). Override the built-in plan
// with --fault-plan=FILE.json (or JMB_FAULT_PLAN).
//
// Scenario B (failure-rate sweep): pseudo-Poisson crash/restart churn at
// increasing rates; JMB with detection/failover vs 802.11, where each
// client just re-associates with its best surviving AP.
//
// Every (scenario, topology) grid point is one TrialRunner trial with its
// own RNG stream and its own FaultSession (seeded from the trial seed),
// so exports are byte-identical for any JMB_THREADS.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/link_model.h"
#include "engine/trial_runner.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "fault/resilience.h"
#include "net/mac.h"
#include "obs/bounds.h"
#include "phy/workspace.h"

namespace {

using namespace jmb;

constexpr std::size_t kApsA = 5;      // scenario A: one spare over ...
constexpr std::size_t kClientsA = 4;  // ... the client count
constexpr int kTopoA = 4;
constexpr int kTopoB = 3;
constexpr double kDurationS = 0.6;
constexpr double kCrashT = 0.2;
constexpr std::size_t kCrashAp = 2;
constexpr double kOutageB = 0.2;
constexpr double kRates[] = {0.0, 0.5, 1.0, 2.0, 4.0};
constexpr std::size_t kNumRates = sizeof(kRates) / sizeof(kRates[0]);

constexpr std::size_t kSinrPool = 8;

/// JMB link states from per-active-mask SINR pools: each distinct joint
/// set prices the SNR cost of shrinking the array, not just the lost AP.
net::MaskedLinkStateFn jmb_links(core::MaskedSinrPool& pools) {
  return [&pools](std::size_t c, const std::vector<std::uint8_t>& mask) {
    return net::LinkState{pools.next(c, mask)};
  };
}

/// Baseline link state: the client's best *surviving* AP at the link
/// budget (instant re-association, per-AP independence).
net::MaskedLinkStateFn baseline_links(
    const std::vector<std::vector<double>>& gains) {
  return [&gains](std::size_t c, const std::vector<std::uint8_t>& up) {
    return net::LinkState{core::best_ap_snrs(gains[c], up)};
  };
}

/// The survivor-floor reference: the plan's crashed APs masked out from
/// t = 0 (non-crash impairments dropped — the floor isolates the cost of
/// the smaller array from transient churn).
fault::FaultPlan survivor_floor_plan(const fault::FaultPlan& plan) {
  std::vector<fault::FaultEvent> events;
  for (const fault::FaultEvent& ev : plan.events()) {
    if (ev.kind == fault::FaultKind::kApCrash) {
      events.push_back({fault::FaultKind::kApCrash, 0.0, ev.ap, 0.0, 0.0, 1.0});
    }
  }
  return fault::FaultPlan(std::move(events), plan.seed());
}

struct PointA {
  double clean_mbps = 0.0;
  double faulted_mbps = 0.0;
  double survivor_mbps = 0.0;
  double base_mbps = 0.0;
  double detect_s = 0.0;
  double recover_s = 0.0;
  std::size_t quarantines = 0;
};

struct PointB {
  double jmb_mbps = 0.0;
  double base_mbps = 0.0;
  std::size_t quarantines = 0;
  std::size_t lead_elections = 0;
  std::size_t faults = 0;
};

net::MacParams mac_params(Rng& rng) {
  net::MacParams mac;
  mac.duration_s = kDurationS;
  mac.airtime.turnaround_s = 16e-6;  // SIFS-like, as in fig09
  mac.seed = rng.next_u64();
  return mac;
}

net::MacReport run_jmb(std::size_t n_aps, std::size_t n_clients,
                       core::MaskedSinrPool& pools, const net::MacParams& mac,
                       const fault::FaultPlan* plan, std::uint64_t trial_seed,
                       const obs::ObsSink* obs) {
  if (!plan || plan->empty()) {
    return net::run_jmb_mac_resilient(n_aps, n_clients, n_clients,
                                      jmb_links(pools), mac, nullptr, nullptr);
  }
  fault::FaultSession session(*plan, n_aps, trial_seed);
  fault::ResilienceController ctrl(n_aps, {}, obs);
  return net::run_jmb_mac_resilient(n_aps, n_clients, n_clients,
                                    jmb_links(pools), mac, &session, &ctrl);
}

PointA run_point_a(const fault::FaultPlan& plan,
                   const fault::FaultPlan& floor_plan,
                   engine::TrialContext& ctx) {
  Rng& rng = ctx.rng;
  Workspace ws;
  std::vector<std::vector<double>> gains;
  core::ChannelMatrixSet h(0, 0);
  {
    const auto timer = ctx.time_stage(engine::kStageMeasure);
    gains = bench::diverse_link_gains(kApsA, kClientsA, bench::snr_bands()[0],
                                      rng);
    h = core::well_conditioned_channel_set(gains, rng);
  }

  PointA pt;
  const auto timer = ctx.time_stage(engine::kStageDecode);

  // Fault-free reference, survivor floor, and the faulted run share the
  // topology but use independent MAC seeds and pool RNG streams.
  core::MaskedSinrPool clean_pools(h, ws, kSinrPool, Rng(rng.next_u64()));
  pt.clean_mbps = run_jmb(kApsA, kClientsA, clean_pools, mac_params(rng),
                          nullptr, ctx.seed, nullptr)
                      .total_goodput_mbps;

  core::MaskedSinrPool floor_pools(h, ws, kSinrPool, Rng(rng.next_u64()));
  pt.survivor_mbps = run_jmb(kApsA, kClientsA, floor_pools, mac_params(rng),
                             &floor_plan, ctx.seed, nullptr)
                         .total_goodput_mbps;

  core::MaskedSinrPool fault_pools(h, ws, kSinrPool, Rng(rng.next_u64()));
  const net::MacReport faulted = run_jmb(kApsA, kClientsA, fault_pools,
                                         mac_params(rng), &plan, ctx.seed,
                                         &ctx.sink);
  pt.faulted_mbps = faulted.total_goodput_mbps;
  pt.detect_s = faulted.mean_time_to_detect_s;
  pt.recover_s = faulted.mean_time_to_recover_s;
  pt.quarantines = faulted.quarantines;

  fault::FaultSession base_session(plan, kApsA, ctx.seed);
  const auto base_links = baseline_links(gains);
  pt.base_mbps = net::run_baseline_mac_resilient(kApsA, kClientsA, base_links,
                                                 mac_params(rng), &base_session)
                     .total_goodput_mbps;

  ctx.sink.observe("resilience_curve/clean_mbps", obs::kMbpsBounds,
                   pt.clean_mbps);
  ctx.sink.observe("resilience_curve/faulted_mbps", obs::kMbpsBounds,
                   pt.faulted_mbps);
  ctx.sink.observe("resilience_curve/survivor_mbps", obs::kMbpsBounds,
                   pt.survivor_mbps);
  ctx.sink.observe("resilience_curve/baseline_faulted_mbps", obs::kMbpsBounds,
                   pt.base_mbps);
  return pt;
}

PointB run_point_b(double rate_hz, engine::TrialContext& ctx) {
  Rng& rng = ctx.rng;
  Workspace ws;
  std::vector<std::vector<double>> gains;
  core::ChannelMatrixSet h(0, 0);
  {
    const auto timer = ctx.time_stage(engine::kStageMeasure);
    gains = bench::diverse_link_gains(kApsA, kClientsA, bench::snr_bands()[0],
                                      rng);
    h = core::well_conditioned_channel_set(gains, rng);
  }
  // Each trial gets its own deterministic crash schedule, so rates
  // average over schedules as well as topologies.
  const fault::FaultPlan plan = fault::FaultPlan::random_crashes(
      rate_hz, kDurationS, kApsA, kOutageB, ctx.seed);

  PointB pt;
  pt.faults = plan.size();
  const auto timer = ctx.time_stage(engine::kStageDecode);

  core::MaskedSinrPool pools(h, ws, kSinrPool, Rng(rng.next_u64()));
  net::MacReport jmb;
  if (plan.empty()) {
    jmb = net::run_jmb_mac_resilient(kApsA, kClientsA, kClientsA,
                                     jmb_links(pools), mac_params(rng), nullptr,
                                     nullptr);
  } else {
    fault::FaultSession session(plan, kApsA, ctx.seed);
    fault::ResilienceController ctrl(kApsA, {}, &ctx.sink);
    jmb = net::run_jmb_mac_resilient(kApsA, kClientsA, kClientsA,
                                     jmb_links(pools), mac_params(rng),
                                     &session, &ctrl);
  }
  pt.jmb_mbps = jmb.total_goodput_mbps;
  pt.quarantines = jmb.quarantines;
  pt.lead_elections = jmb.lead_elections;

  const auto base_links = baseline_links(gains);
  if (plan.empty()) {
    pt.base_mbps = net::run_baseline_mac_resilient(kApsA, kClientsA, base_links,
                                                   mac_params(rng), nullptr)
                       .total_goodput_mbps;
  } else {
    fault::FaultSession base_session(plan, kApsA, ctx.seed);
    pt.base_mbps = net::run_baseline_mac_resilient(kApsA, kClientsA, base_links,
                                                   mac_params(rng),
                                                   &base_session)
                       .total_goodput_mbps;
  }

  ctx.sink.observe("resilience_curve/sweep_jmb_mbps", obs::kMbpsBounds,
                   pt.jmb_mbps);
  ctx.sink.observe("resilience_curve/sweep_baseline_mbps", obs::kMbpsBounds,
                   pt.base_mbps);
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::parse_options(argc, argv, "resilience_curve");
  opts.info.seed = bench::seed_from(argc, argv);
  const auto seed = opts.info.seed;

  fault::FaultPlan plan;
  if (!opts.fault_plan.empty()) {
    std::string err;
    plan = fault::FaultPlan::load(opts.fault_plan, &err);
    if (plan.empty()) {
      std::fprintf(stderr, "%s: %s\n", argv[0],
                   err.empty() ? "fault plan has no events" : err.c_str());
      return 2;
    }
  } else {
    plan = fault::FaultPlan::single_crash(kCrashAp, kCrashT, /*outage_s=*/0.0,
                                          seed);
  }
  const fault::FaultPlan floor_plan = survivor_floor_plan(plan);
  opts.set_fault_plan(opts.fault_plan.empty() ? "builtin:single_crash"
                                              : opts.fault_plan,
                      plan.size());

  bench::banner("Resilience: throughput under AP failures, JMB vs 802.11",
                seed);
  std::printf("%zu APs, %zu clients; %.1f s runs; crash plan: %zu event(s)\n\n",
              kApsA, kClientsA, kDurationS, plan.size());
  opts.add_param("n_aps", static_cast<double>(kApsA));
  opts.add_param("n_clients", static_cast<double>(kClientsA));
  opts.add_param("duration_s", kDurationS);
  opts.add_param("topologies_a", kTopoA);
  opts.add_param("topologies_b", kTopoB);

  // Trial grid: scenario A topologies first, then (rate, topology) pairs.
  const std::size_t n_trials = kTopoA + kNumRates * kTopoB;
  engine::TrialRunner runner({.base_seed = seed});

  struct Outcome {
    PointA a;
    PointB b;
    bool is_a = false;
  };
  const std::vector<Outcome> outcomes =
      runner.run(n_trials, [&](engine::TrialContext& ctx) {
        Outcome out;
        if (ctx.index < static_cast<std::size_t>(kTopoA)) {
          out.is_a = true;
          out.a = run_point_a(plan, floor_plan, ctx);
        } else {
          const std::size_t rate_idx =
              (ctx.index - kTopoA) / static_cast<std::size_t>(kTopoB);
          out.b = run_point_b(kRates[rate_idx], ctx);
        }
        return out;
      });

  // --- Scenario A: graceful degradation around one mid-run crash ---
  RunningStats clean, faulted, survivor, base, detect, recover;
  std::size_t quarantines_a = 0;
  for (int i = 0; i < kTopoA; ++i) {
    const PointA& pt = outcomes[static_cast<std::size_t>(i)].a;
    clean.add(pt.clean_mbps);
    faulted.add(pt.faulted_mbps);
    survivor.add(pt.survivor_mbps);
    base.add(pt.base_mbps);
    quarantines_a += pt.quarantines;
    if (pt.quarantines > 0) {
      detect.add(pt.detect_s);
      recover.add(pt.recover_s);
    }
  }
  const double t_crash =
      plan.empty() ? 0.0 : std::min(plan.events().front().t_s, kDurationS);
  const double blend = (t_crash * clean.mean() +
                        (kDurationS - t_crash) * survivor.mean()) /
                       kDurationS;
  std::printf("--- scenario A: 1 slave AP crashes at t = %.2f s ---\n",
              t_crash);
  std::printf("%-34s %8.1f Mb/s\n", "JMB fault-free (all APs)", clean.mean());
  std::printf("%-34s %8.1f Mb/s\n", "JMB survivor floor (crashed AP out)",
              survivor.mean());
  std::printf("%-34s %8.1f Mb/s\n", "JMB with mid-run crash", faulted.mean());
  std::printf("%-34s %8.1f Mb/s\n", "802.11 with mid-run crash", base.mean());
  std::printf("recovery: faulted / time-blended floor = %.2f "
              "(1.0 = full recovery to the (N-1)-AP level)\n",
              blend > 0.0 ? faulted.mean() / blend : 0.0);
  std::printf("detection: %zu quarantines, mean time-to-detect %.1f ms, "
              "mean time-to-recover %.1f ms\n\n",
              quarantines_a, detect.mean() * 1e3, recover.mean() * 1e3);

  // --- Scenario B: crash-rate sweep ---
  std::printf("--- scenario B: pseudo-Poisson crashes, %.2f s outages ---\n",
              kOutageB);
  std::printf("%-12s %-14s %-16s %-8s %-12s %-8s\n", "rate (1/s)",
              "JMB (Mb/s)", "802.11 (Mb/s)", "gain", "quarantines",
              "re-elects");
  std::size_t lead_elections = 0, quarantines_b = 0, faults_b = 0;
  for (std::size_t r = 0; r < kNumRates; ++r) {
    RunningStats jmb_acc, base_acc;
    std::size_t q = 0, e = 0;
    for (int i = 0; i < kTopoB; ++i) {
      const PointB& pt =
          outcomes[static_cast<std::size_t>(kTopoA) +
                   r * static_cast<std::size_t>(kTopoB) +
                   static_cast<std::size_t>(i)]
              .b;
      jmb_acc.add(pt.jmb_mbps);
      base_acc.add(pt.base_mbps);
      q += pt.quarantines;
      e += pt.lead_elections;
      faults_b += pt.faults;
    }
    lead_elections += e;
    quarantines_b += q;
    std::printf("%-12.1f %-14.1f %-16.1f %-8.2f %-12zu %-8zu\n", kRates[r],
                jmb_acc.mean(), base_acc.mean(),
                base_acc.mean() > 0 ? jmb_acc.mean() / base_acc.mean() : 0.0,
                q, e);
  }
  std::printf("\n");

  opts.add_fault_stat("quarantines",
                      static_cast<double>(quarantines_a + quarantines_b));
  opts.add_fault_stat("lead_elections", static_cast<double>(lead_elections));
  opts.add_fault_stat("sweep_crashes_scheduled", static_cast<double>(faults_b));
  opts.add_fault_stat("mean_time_to_detect_s", detect.mean());
  opts.add_fault_stat("mean_time_to_recover_s", recover.mean());
  return bench::finish(opts, runner);
}
