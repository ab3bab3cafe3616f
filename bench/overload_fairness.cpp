// Overload fairness — bursty per-flow traffic under offered loads from
// under-subscribed to 2x capacity, JMB vs the 802.11 baseline, across
// scheduling policies (FIFO / proportional-fair / EDF).
//
// Not a paper figure: the paper's Fig. 10 fairness result is measured
// with an always-backlogged queue. This bench extends that story into the
// congested regime the ROADMAP names — active users >> spatial streams,
// where the *scheduler*, not just the precoder, decides who gets capacity.
// Each user runs the JMB_TRAFFIC workload mix (default "mixed": 60%
// Pareto-burst web + 40% deadline CBR video); both MACs see byte-identical
// arrival sequences (same traffic seed), so the comparison isolates the
// air interface + policy.
//
// Reported per (offered load, policy): delivered goodput, Jain fairness
// over per-flow goodput, p50/p99 delivery latency, and deadline misses.
// Knobs: JMB_TRAFFIC (workload mix), JMB_OFFERED_LOAD (single load factor
// instead of the sweep), JMB_SCHED (single policy instead of the sweep);
// --quick shrinks the topology count and run duration for smoke tests.
//
// Every (load, policy, topology) grid point is one TrialRunner trial with
// its own RNG stream and its own per-flow traffic streams (seeded
// base ^ user ^ (flow << 16)), so exports are byte-identical for any
// JMB_THREADS.
#include <algorithm>
#include <cstdio>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "core/link_model.h"
#include "core/precoder.h"
#include "dsp/stats.h"
#include "engine/env.h"
#include "engine/trial_runner.h"
#include "net/mac.h"
#include "obs/bounds.h"
#include "traffic/flow.h"
#include "traffic/policy.h"

namespace {

using namespace jmb;

constexpr std::size_t kAps = 4;
constexpr std::size_t kStreams = 4;
constexpr std::size_t kUsers = 12;  // active users >> spatial streams
/// Reference capacity the load factor is relative to: roughly what a
/// 4-stream joint transmission sustains in the high SNR band after
/// measurement overhead. Load 2.0 is then a genuine overload.
constexpr double kNominalCapacityMbps = 120.0;
constexpr double kLoads[] = {0.4, 1.0, 2.0};
constexpr std::size_t kNumLoads = sizeof(kLoads) / sizeof(kLoads[0]);
const char* const kPolicies[] = {"fifo", "pf", "edf"};
constexpr std::size_t kNumPolicies = sizeof(kPolicies) / sizeof(kPolicies[0]);
/// A-MPDU budget: up to 4 MPDUs per client per joint transmission.
constexpr std::size_t kAggFrames = 4;
constexpr std::size_t kAggBytes = 8000;
constexpr std::size_t kSinrPool = 8;

struct Config {
  std::vector<double> loads;
  std::vector<const char*> policies;
  const char* profile = "mixed";
  double duration_s = 0.25;
  std::size_t topologies = 2;
  phy::PrecoderKind precoder = phy::PrecoderKind::kZf;
};

struct Point {
  double jmb_mbps = 0.0;
  double base_mbps = 0.0;
  double jmb_jain = 0.0;
  double base_jain = 0.0;
  double jmb_p50_s = 0.0;
  double jmb_p99_s = 0.0;
  double base_p50_s = 0.0;
  double base_p99_s = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t flows = 0;
  std::uint64_t jmb_delivered = 0;
  std::uint64_t jmb_dropped = 0;
  std::uint64_t jmb_misses = 0;
  std::uint64_t base_misses = 0;
  std::uint64_t jmb_agg_mpdus = 0;
};

/// Jain fairness index over per-flow delivered bytes: (sum x)^2 / (n sum
/// x^2), 1.0 = perfectly equal shares, 1/n = one flow took everything.
double jain_index(const std::vector<net::FlowStats>& flows) {
  if (flows.empty()) return 0.0;
  double sum = 0.0, sum_sq = 0.0;
  for (const net::FlowStats& f : flows) {
    const double x = static_cast<double>(f.delivered_bytes);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 0.0;
  return sum * sum / (static_cast<double>(flows.size()) * sum_sq);
}

std::uint64_t sum_misses(const std::vector<net::FlowStats>& flows) {
  std::uint64_t n = 0;
  for (const net::FlowStats& f : flows) n += f.deadline_misses;
  return n;
}

Point run_point(double load, const char* policy, const Config& cfg,
                engine::TrialContext& ctx) {
  Rng& rng = ctx.rng;
  // With users >> streams no single precoder can zero-force everyone at
  // once; the joint set changes every slot. Model: partition the users
  // into groups of kStreams, build one well-conditioned kAps x kStreams
  // channel set per group, and draw each client's post-beamforming SINR
  // from its group's pool (streams are decoupled per Section 9, so the
  // per-client marginal is what the MAC consumes).
  constexpr std::size_t kGroups = kUsers / kStreams;
  std::vector<std::vector<double>> gains;
  std::vector<core::ChannelMatrixSet> h;
  {
    const auto timer = ctx.time_stage(engine::kStageMeasure);
    gains =
        bench::diverse_link_gains(kAps, kUsers, bench::snr_bands()[0], rng);
    h.reserve(kGroups);
    for (std::size_t g = 0; g < kGroups; ++g) {
      const std::vector<std::vector<double>> group_gains(
          gains.begin() + static_cast<std::ptrdiff_t>(g * kStreams),
          gains.begin() + static_cast<std::ptrdiff_t>((g + 1) * kStreams));
      h.push_back(core::well_conditioned_channel_set(group_gains, rng));
    }
  }

  Point pt;
  const auto timer = ctx.time_stage(engine::kStageDecode);

  // One SinrPool per user group behind one shared lookup count: each
  // joint transmission sees a fresh phase-error draw, cycled
  // deterministically; a group whose precoder fails is an outage.
  core::SinrPoolSet pools;
  {
    Rng pool_rng(rng.next_u64());
    core::PrecoderConfig pcfg;
    pcfg.kind = cfg.precoder;
    if (pcfg.kind == phy::PrecoderKind::kRzf) {
      pcfg.ridge = core::PrecoderConfig::mmse_ridge(kStreams, 1.0);
    }
    for (std::size_t g = 0; g < kGroups; ++g) {
      pools.add(h[g], core::Precoder::build_kind(h[g], pcfg, &ctx.sink),
                kSinrPool, pool_rng);
    }
  }
  const net::LinkStateFn jmb_links = [&](std::size_t c) {
    return net::LinkState{pools.next(c / kStreams, c % kStreams)};
  };
  // Baseline: flat per-subcarrier SNR from the client's best AP.
  const net::LinkStateFn base_links = [&](std::size_t c) {
    return net::LinkState{core::best_ap_snrs(gains[c])};
  };

  // Both MACs consume byte-identical arrival sequences: two PacketSource
  // instances built from the same traffic seed.
  const double per_user_mbps = load * kNominalCapacityMbps / kUsers;
  const traffic::Profile profile =
      traffic::make_profile(cfg.profile, per_user_mbps);
  const std::uint64_t traffic_seed = rng.next_u64();

  net::MacParams mac;
  mac.duration_s = cfg.duration_s;
  mac.airtime.turnaround_s = 16e-6;  // SIFS-like, as in fig09
  mac.saturated = false;
  mac.record_latency = true;
  mac.agg = {kAggFrames, kAggBytes};

  traffic::PacketSource jmb_src(traffic_seed, kUsers, profile,
                                cfg.duration_s);
  const auto jmb_sched = traffic::make_scheduler(policy);
  mac.traffic = &jmb_src;
  mac.scheduler = jmb_sched.get();
  mac.seed = rng.next_u64();
  const net::MacReport jmb =
      net::run_jmb_mac(kAps, kUsers, kStreams, jmb_links, mac);

  traffic::PacketSource base_src(traffic_seed, kUsers, profile,
                                 cfg.duration_s);
  const auto base_sched = traffic::make_scheduler(policy);
  mac.traffic = &base_src;
  mac.scheduler = base_sched.get();
  mac.seed = rng.next_u64();
  const net::MacReport base = net::run_baseline_mac(kUsers, base_links, mac);

  pt.jmb_mbps = jmb.total_goodput_mbps;
  pt.base_mbps = base.total_goodput_mbps;
  pt.jmb_jain = jain_index(jmb.flows);
  pt.base_jain = jain_index(base.flows);
  if (!jmb.frame_latency_s.empty()) {
    pt.jmb_p50_s = percentile(jmb.frame_latency_s, 0.50);
    pt.jmb_p99_s = percentile(jmb.frame_latency_s, 0.99);
  }
  if (!base.frame_latency_s.empty()) {
    pt.base_p50_s = percentile(base.frame_latency_s, 0.50);
    pt.base_p99_s = percentile(base.frame_latency_s, 0.99);
  }
  pt.offered = jmb.offered_packets;
  pt.flows = jmb.flows.size();
  for (const net::FlowStats& f : jmb.flows) {
    pt.jmb_delivered += f.delivered;
    pt.jmb_dropped += f.dropped;
  }
  pt.jmb_misses = sum_misses(jmb.flows);
  pt.base_misses = sum_misses(base.flows);
  pt.jmb_agg_mpdus = jmb.aggregated_mpdus;

  const std::string prefix = std::string("overload_fairness/") + policy;
  ctx.sink.observe(prefix + "/jmb_jain", obs::kUnitBounds, pt.jmb_jain);
  ctx.sink.observe(prefix + "/base_jain", obs::kUnitBounds, pt.base_jain);
  ctx.sink.observe(prefix + "/jmb_goodput_mbps", obs::kMbpsBounds,
                   pt.jmb_mbps);
  ctx.sink.observe(prefix + "/base_goodput_mbps", obs::kMbpsBounds,
                   pt.base_mbps);
  ctx.sink.observe(prefix + "/jmb_p99_latency_s", obs::kLatencySBounds,
                   pt.jmb_p99_s);
  ctx.sink.observe(prefix + "/base_p99_latency_s", obs::kLatencySBounds,
                   pt.base_p99_s);
  ctx.sink.count(prefix + "/jmb_deadline_misses",
                 static_cast<double>(pt.jmb_misses));
  ctx.sink.count(prefix + "/jmb_aggregated_mpdus",
                 static_cast<double>(pt.jmb_agg_mpdus));
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  {
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]) == "--quick") {
        quick = true;
      } else {
        argv[out++] = argv[i];
      }
    }
    argc = out;
  }
  auto opts = bench::parse_options(argc, argv, "overload_fairness");
  opts.info.seed = bench::seed_from(argc, argv);
  const auto seed = opts.info.seed;

  Config cfg;
  static const char* const kProfileNames[] = {"poisson", "web", "video",
                                              "mixed", nullptr};
  static const char* const kPolicyNames[] = {"fifo", "pf", "edf", nullptr};
  static bool warn_profile = false, warn_sched = false, warn_load = false;
  cfg.profile =
      engine::env_choice("JMB_TRAFFIC", kProfileNames, "mixed", warn_profile);
  const char* sched_knob =
      engine::env_choice("JMB_SCHED", kPolicyNames, "all", warn_sched);
  if (std::string_view(sched_knob) == "all") {
    cfg.policies.assign(kPolicies, kPolicies + kNumPolicies);
  } else {
    cfg.policies.push_back(sched_knob);
  }
  const double load_knob =
      engine::env_f64("JMB_OFFERED_LOAD", 0.0, warn_load);
  if (load_knob > 0.0) {
    cfg.loads.push_back(load_knob);
  } else {
    cfg.loads.assign(kLoads, kLoads + kNumLoads);
  }
  static bool warn_precoder = false;
  cfg.precoder = engine::env_precoder_kind(warn_precoder);
  if (cfg.precoder != phy::PrecoderKind::kZf) {
    std::printf("precoder: %s (JMB_PRECODER)\n",
                phy::precoder_kind_name(cfg.precoder));
  }
  if (quick) {
    cfg.duration_s = 0.1;
    cfg.topologies = 1;
  }

  bench::banner(
      "Overload fairness: bursty per-flow traffic, JMB vs 802.11 across "
      "scheduling policies",
      seed);
  std::printf(
      "%zu APs, %zu streams, %zu users; '%s' workload; %.2f s runs; "
      "A-MPDU <= %zu frames / %zu B\n\n",
      kAps, kStreams, kUsers, cfg.profile, cfg.duration_s, kAggFrames,
      kAggBytes);
  opts.add_param("n_aps", static_cast<double>(kAps));
  opts.add_param("n_streams", static_cast<double>(kStreams));
  opts.add_param("n_users", static_cast<double>(kUsers));
  opts.add_param("duration_s", cfg.duration_s);
  opts.add_param("topologies", static_cast<double>(cfg.topologies));
  opts.add_param("loads", static_cast<double>(cfg.loads.size()));
  opts.add_param("policies", static_cast<double>(cfg.policies.size()));
  opts.add_param("agg_max_frames", static_cast<double>(kAggFrames));
  opts.add_param("nominal_capacity_mbps", kNominalCapacityMbps);

  const std::size_t n_points = cfg.loads.size() * cfg.policies.size();
  const std::size_t n_trials = n_points * cfg.topologies;
  engine::TrialRunner runner({.base_seed = seed});
  const std::vector<Point> outcomes =
      runner.run(n_trials, [&](engine::TrialContext& ctx) {
        const std::size_t point = ctx.index / cfg.topologies;
        const double load = cfg.loads[point / cfg.policies.size()];
        const char* policy = cfg.policies[point % cfg.policies.size()];
        return run_point(load, policy, cfg, ctx);
      });

  std::printf("%-6s %-6s %-11s %-11s %-12s %-12s %-10s %-10s %-8s\n", "load",
              "policy", "JMB (Mb/s)", "802 (Mb/s)", "JMB Jain", "802 Jain",
              "JMB p99ms", "802 p99ms", "misses");
  std::vector<Point> agg(n_points);
  for (std::size_t pt_i = 0; pt_i < n_points; ++pt_i) {
    Point& a = agg[pt_i];
    for (std::size_t k = 0; k < cfg.topologies; ++k) {
      const Point& p = outcomes[pt_i * cfg.topologies + k];
      a.jmb_mbps += p.jmb_mbps;
      a.base_mbps += p.base_mbps;
      a.jmb_jain += p.jmb_jain;
      a.base_jain += p.base_jain;
      a.jmb_p50_s += p.jmb_p50_s;
      a.jmb_p99_s += p.jmb_p99_s;
      a.base_p50_s += p.base_p50_s;
      a.base_p99_s += p.base_p99_s;
      a.offered += p.offered;
      a.flows = std::max(a.flows, p.flows);
      a.jmb_delivered += p.jmb_delivered;
      a.jmb_dropped += p.jmb_dropped;
      a.jmb_misses += p.jmb_misses;
      a.base_misses += p.base_misses;
      a.jmb_agg_mpdus += p.jmb_agg_mpdus;
    }
    const double n = static_cast<double>(cfg.topologies);
    a.jmb_mbps /= n;
    a.base_mbps /= n;
    a.jmb_jain /= n;
    a.base_jain /= n;
    a.jmb_p50_s /= n;
    a.jmb_p99_s /= n;
    a.base_p50_s /= n;
    a.base_p99_s /= n;
    const double load = cfg.loads[pt_i / cfg.policies.size()];
    const char* policy = cfg.policies[pt_i % cfg.policies.size()];
    std::printf("%-6.1f %-6s %-11.1f %-11.1f %-12.3f %-12.3f %-10.2f "
                "%-10.2f %-8llu\n",
                load, policy, a.jmb_mbps, a.base_mbps, a.jmb_jain,
                a.base_jain, a.jmb_p99_s * 1e3, a.base_p99_s * 1e3,
                static_cast<unsigned long long>(a.jmb_misses));
  }
  std::printf("\n");

  // Headline "traffic" object: the most stressed JMB configuration in the
  // sweep — highest load, proportional-fair when present.
  std::size_t head_policy = 0;
  for (std::size_t i = 0; i < cfg.policies.size(); ++i) {
    if (std::string_view(cfg.policies[i]) == "pf") head_policy = i;
  }
  const std::size_t head =
      (cfg.loads.size() - 1) * cfg.policies.size() + head_policy;
  const Point& hp = agg[head];
  obs::TrafficSummary summary;
  summary.profile = cfg.profile;
  summary.policy = cfg.policies[head_policy];
  summary.offered_load = cfg.loads.back();
  summary.users = kUsers;
  summary.flows = hp.flows;
  summary.offered_packets = hp.offered;
  summary.delivered_packets = hp.jmb_delivered;
  summary.dropped_packets = hp.jmb_dropped;
  summary.deadline_misses = hp.jmb_misses;
  summary.aggregated_mpdus = hp.jmb_agg_mpdus;
  summary.jain_fairness = hp.jmb_jain;
  summary.goodput_mbps = hp.jmb_mbps;
  summary.p50_latency_s = hp.jmb_p50_s;
  summary.p99_latency_s = hp.jmb_p99_s;
  opts.set_traffic(std::move(summary));

  return bench::finish(opts, runner);
}
