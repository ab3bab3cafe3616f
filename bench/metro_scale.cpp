// Metro-scale sharding sweep — aggregate delivered throughput and p99
// frame latency as the deployment grows from one conference room to a
// grid of cells with user churn and inter-cell interference.
//
// Not a paper figure: the paper's testbed is a single 10-AP room. This
// bench answers the question its abstract poses — JMB "scales wireless
// capacity with user demands" — at the next deployment size up: a metro
// floor of JMB cells, each an independent simulation shard (own RNG
// stream, own fault session, own per-cluster lead election) coupled only
// through deterministic regenerable state (distance-based inter-cell
// leakage, churn hand-offs). Every (config, trial, cell) grid point is
// one shard work item over the TrialRunner pool with its own RNG stream,
// so exports are byte-identical for any JMB_THREADS and shard schedule.
//
// Knobs: JMB_CELLS pins the sweep to one cell count, JMB_USERS_PER_CELL
// sets the per-cell user population, JMB_CHURN_RATE the symmetric
// departure/arrival rate in Hz (0 disables churn). --quick trims the
// sweep for CI parity runs.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "engine/trial_runner.h"
#include "fault/plan.h"
#include "metro/metro_scenario.h"
#include "rate/airtime.h"

namespace {

using namespace jmb;

struct SweepPoint {
  std::size_t cells;
  std::size_t users;
};

/// APs a sweep point runs: zero-forcing needs as many transmitters as
/// joint streams, so the deployment adds APs with user demand (the
/// paper's scaling model).
std::size_t aps_for(const metro::MetroParams& base, std::size_t users) {
  return std::max(base.aps_per_cell, users);
}

/// Airtime of one channel-measurement epoch at `users` per cell. Each
/// client feeds back n_aps x 52 coefficients, so it grows as N^2: the
/// CSI-feedback wall.
double epoch_s(const metro::MetroParams& base, std::size_t users) {
  return rate::measurement_airtime_s(aps_for(base, users), users);
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::parse_options(argc, argv, "metro_scale");
  bool quick = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") {
      quick = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  opts.info.seed = bench::seed_from(argc, argv);

  metro::MetroParams base;
  base.n_cells = 0;  // sentinel: 0 = env unset, sweep the default grid
  base.users_per_cell = 4;
  base.aps_per_cell = 4;
  base.n_trials = quick ? 2 : 3;
  base.duration_s = quick ? 0.15 : 0.25;
  base.churn_rate_hz = 4.0;
  base = metro::params_from_env(base);

  // Optional fault plan, applied to every cell (per-cell session seeded
  // from the trial seed; each cluster detects, quarantines, and re-elects
  // its own lead independently).
  fault::FaultPlan plan;
  if (!opts.fault_plan.empty()) {
    std::string err;
    plan = fault::FaultPlan::load(opts.fault_plan, &err);
    if (plan.empty()) {
      std::fprintf(stderr, "%s: %s\n", argv[0],
                   err.empty() ? "fault plan has no events" : err.c_str());
      return 2;
    }
    base.fault_plan = &plan;
    opts.set_fault_plan(opts.fault_plan, plan.size());
  }

  // Sweep points: cell counts at the configured user population, plus a
  // user-load sweep at the largest grid. JMB_CELLS collapses the sweep to
  // that single deployment size.
  std::vector<SweepPoint> sweep;
  if (base.n_cells > 0) {
    sweep.push_back({base.n_cells, base.users_per_cell});
  } else if (quick) {
    sweep.push_back({1, base.users_per_cell});
    sweep.push_back({4, base.users_per_cell});
  } else {
    for (const std::size_t cells : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{9}}) {
      sweep.push_back({cells, base.users_per_cell});
    }
    sweep.push_back({9, base.users_per_cell + 2});
  }

  // A point whose first epoch outlasts the run would measure for the
  // whole run and report 0 Mb/s; refuse it before running anything.
  for (const SweepPoint& pt : sweep) {
    if (epoch_s(base, pt.users) <= base.duration_s) continue;
    std::size_t fit = 0;  // the largest user count whose epoch fits
    while (epoch_s(base, fit + 1) <= base.duration_s) ++fit;
    std::fprintf(stderr,
                 "%s: JMB_USERS_PER_CELL=%zu: one channel-measurement epoch "
                 "of %zu APs and %zu users takes %.1f ms, longer than the "
                 "%.0f ms run; at most %zu users per cell fit\n",
                 argv[0], pt.users, aps_for(base, pt.users), pt.users,
                 epoch_s(base, pt.users) * 1e3, base.duration_s * 1e3, fit);
    return 2;
  }

  bench::banner("metro_scale — aggregate capacity vs cells x users",
                opts.info.seed);
  std::printf("churn %.1f Hz, %zu trial(s)/point, %.2f s runs%s\n\n",
              base.churn_rate_hz, base.n_trials, base.duration_s,
              quick ? " (quick)" : "");
  opts.add_param("trials_per_point", static_cast<double>(base.n_trials));
  opts.add_param("duration_s", base.duration_s);
  opts.add_param("churn_rate_hz", base.churn_rate_hz);
  opts.add_param("sweep_points", static_cast<double>(sweep.size()));

  engine::TrialRunner runner({.base_seed = opts.info.seed});

  std::printf("%-7s %-7s %-9s %-16s %-18s %-11s %-9s %-8s\n", "cells",
              "users", "APs/cell", "aggregate Mb/s", "p99 latency (ms)",
              "handoffs", "blocked", "elects");
  metro::MetroResult last;
  std::size_t first_trial = 0;
  for (const SweepPoint& pt : sweep) {
    metro::MetroParams p = base;
    p.n_cells = pt.cells;
    p.users_per_cell = pt.users;
    p.aps_per_cell = aps_for(base, pt.users);
    p.normalize();
    const metro::MetroResult res = metro::run_metro(runner, p, first_trial);
    first_trial += p.n_trials;
    std::printf("%-7zu %-7zu %-9zu %-16.1f %-18.3f %-11zu %-9zu %-8zu\n",
                pt.cells, pt.users, p.aps_per_cell, res.aggregate_goodput_mbps,
                res.p99_frame_latency_s * 1e3,
                res.handoffs_in + res.handoffs_out, res.blocked_handoffs,
                res.lead_elections);
    char name[64];
    std::snprintf(name, sizeof(name), "agg_mbps_c%zu_u%zu", pt.cells,
                  pt.users);
    opts.add_param(name, res.aggregate_goodput_mbps);
    last = res;
  }
  std::printf("\n");

  // The "metro" summary object carries the largest (= last) sweep point.
  const SweepPoint& head = sweep.back();
  obs::MetroSummary summary;
  summary.cells = head.cells;
  summary.users_per_cell = head.users;
  summary.churn_rate_hz = base.churn_rate_hz;
  summary.aggregate_goodput_mbps = last.aggregate_goodput_mbps;
  summary.p99_frame_latency_s = last.p99_frame_latency_s;
  summary.arrivals = last.arrivals;
  summary.departures = last.departures;
  summary.handoffs = last.handoffs_in + last.handoffs_out;
  summary.blocked_handoffs = last.blocked_handoffs;
  summary.lead_elections = last.lead_elections;
  summary.quarantines = last.quarantines;
  for (const metro::CellSummary& c : last.per_cell) {
    summary.per_cell_goodput_mbps.push_back(c.goodput_mbps);
  }
  opts.set_metro(std::move(summary));
  return bench::finish(opts, runner);
}
