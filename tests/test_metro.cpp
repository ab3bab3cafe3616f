// Tests for the metro sharding layer: churn determinism and hand-off
// reconstruction, two-level (trial x cell) scheduling, and the
// shard-schedule independence of the merged scenario results.
#include <gtest/gtest.h>

#include <cstdlib>

#include "engine/trial_runner.h"
#include "metro/cell_shard.h"
#include "metro/churn.h"
#include "metro/metro_scenario.h"
#include "obs/export.h"

namespace jmb::metro {
namespace {

ChurnParams churny() {
  ChurnParams p;
  p.users_per_cell = 4;
  p.arrival_rate_hz = 6.0;
  p.departure_rate_hz = 6.0;
  p.handoff_fraction = 0.5;
  p.duration_s = 1.0;
  return p;
}

TEST(Churn, TimelineIsAPureFunctionOfItsArguments) {
  const chan::CellGridParams grid{.cols = 2, .pitch_m = 30.0};
  const ChurnParams p = churny();
  const auto a = churn_timeline(42, 1, 4, grid, p);
  const auto b = churn_timeline(42, 1, 4, grid, p);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_s, b[i].t_s);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].peer_cell, b[i].peer_cell);
  }
  // A different cell index decorrelates the stream.
  const auto c = churn_timeline(42, 2, 4, grid, p);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].t_s != c[i].t_s;
  }
  EXPECT_TRUE(differs);
}

TEST(Churn, DisabledChurnDrawsNothingAndKeepsEveryoneAttached) {
  const chan::CellGridParams grid{.cols = 2, .pitch_m = 30.0};
  ChurnParams p = churny();
  p.arrival_rate_hz = 0.0;
  p.departure_rate_hz = 0.0;
  EXPECT_TRUE(churn_timeline(1, 0, 4, grid, p).empty());
  const CellChurn churn(1, 0, 4, grid, p);
  for (double t : {0.0, 0.3, 0.99}) {
    for (std::size_t u = 0; u < p.users_per_cell; ++u) {
      EXPECT_TRUE(churn.active(u, t)) << "user " << u << " t " << t;
    }
  }
  EXPECT_TRUE(churn.remeasure_times().empty());
  EXPECT_EQ(churn.stats().departures, 0u);
}

TEST(Churn, ActivityFollowsTheTimeline) {
  const chan::CellGridParams grid{.cols = 2, .pitch_m = 30.0};
  const ChurnParams p = churny();
  const auto events = churn_timeline(7, 0, 1, grid, p);
  ASSERT_FALSE(events.empty());
  // Single cell: no hand-off targets, so the cell's own timeline is the
  // whole story and activity must flip exactly at each event.
  const CellChurn churn(7, 0, 1, grid, p);
  for (const ChurnEvent& ev : events) {
    const bool attach = ev.type == ChurnEventType::kArrival;
    EXPECT_EQ(churn.active(ev.user, ev.t_s + 1e-9), attach)
        << "event at t=" << ev.t_s << " user " << ev.user;
  }
  EXPECT_EQ(churn.stats().handoffs_out, 0u);
  EXPECT_EQ(churn.stats().handoffs_in, 0u);
}

TEST(Churn, HandoffsReconcileAcrossTheGrid) {
  // Every hand-off emitted by some cell toward cell c must show up at c as
  // either an accepted hand-off-in or a blocked one — reconstructed purely
  // from regenerated timelines, no shared state.
  const chan::CellGridParams grid{.cols = 2, .pitch_m = 30.0};
  const ChurnParams p = churny();
  const std::size_t n_cells = 4;
  std::size_t outs = 0, ins = 0, blocked = 0;
  for (std::size_t c = 0; c < n_cells; ++c) {
    const CellChurn churn(99, c, n_cells, grid, p);
    outs += churn.stats().handoffs_out;
    ins += churn.stats().handoffs_in;
    blocked += churn.stats().blocked_handoffs;
    EXPECT_EQ(churn.remeasure_times().size(), churn.stats().handoffs_in);
  }
  EXPECT_GT(outs, 0u);
  EXPECT_EQ(outs, ins + blocked);
}

TEST(TrialRunnerSharded, FlatOrderAndSeedFormula) {
  engine::TrialRunner runner({.base_seed = 1000, .n_threads = 1});
  struct Item {
    std::size_t index, cell, n_cells;
    std::uint64_t seed;
  };
  const auto items =
      runner.run_sharded(2, 3, [](engine::TrialContext& ctx) {
        return Item{ctx.index, ctx.cell, ctx.n_cells, ctx.seed};
      });
  ASSERT_EQ(items.size(), 6u);
  EXPECT_EQ(runner.trials_run(), 2u);
  EXPECT_EQ(runner.cells_run(), 6u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].index, i / 3);
    EXPECT_EQ(items[i].cell, i % 3);
    EXPECT_EQ(items[i].n_cells, 3u);
    EXPECT_EQ(items[i].seed, 1000u ^ (i / 3) ^
                                 (static_cast<std::uint64_t>(i % 3) << 32));
  }
  // Cell 0 reproduces the classic per-trial seed bit-for-bit.
  EXPECT_EQ(items[0].seed, 1000u ^ 0u);
  EXPECT_EQ(items[3].seed, 1000u ^ 1u);
}

TEST(TrialRunnerSharded, FirstTrialOffsetsIndexAndSeed) {
  engine::TrialRunner runner({.base_seed = 5, .n_threads = 1});
  const auto seeds = runner.run_sharded(
      2, 2, [](engine::TrialContext& ctx) { return ctx.seed; },
      /*first_trial=*/10);
  ASSERT_EQ(seeds.size(), 4u);
  EXPECT_EQ(seeds[0], 5u ^ 10u);
  EXPECT_EQ(seeds[2], 5u ^ 11u);
}

TEST(TrialRunnerSharded, MergedMetricsAreScheduleIndependent) {
  const auto run_with = [](std::size_t n_threads) {
    engine::TrialRunner runner({.base_seed = 3, .n_threads = n_threads});
    (void)runner.run_sharded(3, 4, [](engine::TrialContext& ctx) {
      // Distinct per-cell streams feeding shared metric names: the merge
      // order, not the values, is what could differ across schedules.
      ctx.sink.count("t/items");
      ctx.sink.set_gauge("t/last_seed", static_cast<double>(ctx.seed));
      static constexpr double kCellBounds[] = {0.5, 1.5, 2.5, 3.5};
      ctx.sink.observe("t/cell", kCellBounds, static_cast<double>(ctx.cell));
      return 0;
    });
    return obs::registry_csv(runner.registry());
  };
  const std::string t1 = run_with(1);
  EXPECT_EQ(t1, run_with(4));
  EXPECT_EQ(t1, run_with(3));
}

TEST(MetroScenario, ResultIsIdenticalForAnyThreadCount) {
  MetroParams p;
  p.n_cells = 4;
  p.users_per_cell = 3;
  p.aps_per_cell = 3;
  p.n_trials = 2;
  p.duration_s = 0.05;
  p.churn_rate_hz = 8.0;
  p.normalize();

  const auto run_with = [&](std::size_t n_threads) {
    engine::TrialRunner runner({.base_seed = 77, .n_threads = n_threads});
    const MetroResult res = run_metro(runner, p);
    return std::make_pair(res, obs::registry_csv(runner.registry()));
  };
  const auto [r1, csv1] = run_with(1);
  const auto [r4, csv4] = run_with(4);
  EXPECT_EQ(csv1, csv4);
  EXPECT_EQ(r1.aggregate_goodput_mbps, r4.aggregate_goodput_mbps);
  EXPECT_EQ(r1.p99_frame_latency_s, r4.p99_frame_latency_s);
  EXPECT_EQ(r1.handoffs_in, r4.handoffs_in);
  EXPECT_EQ(r1.blocked_handoffs, r4.blocked_handoffs);
  ASSERT_EQ(r1.per_cell.size(), r4.per_cell.size());
  for (std::size_t c = 0; c < r1.per_cell.size(); ++c) {
    EXPECT_EQ(r1.per_cell[c].goodput_mbps, r4.per_cell[c].goodput_mbps);
    EXPECT_EQ(r1.per_cell[c].handoffs_in, r4.per_cell[c].handoffs_in);
  }
  EXPECT_GT(r1.aggregate_goodput_mbps, 0.0);
  EXPECT_GT(r1.latency_samples, 0u);
}

TEST(MetroScenario, SingleCellShardMatchesTrialLevelSeeding) {
  // n_cells = 1 must ride the degenerate paths end to end: classic seed,
  // zero interference, no hand-off targets.
  MetroParams p;
  p.n_cells = 1;
  p.users_per_cell = 3;
  p.aps_per_cell = 3;
  p.n_trials = 2;
  p.duration_s = 0.05;
  p.churn_rate_hz = 0.0;
  p.normalize();
  engine::TrialRunner sharded({.base_seed = 21, .n_threads = 1});
  const MetroResult via_metro = run_metro(sharded, p);

  CellShardParams shard;
  shard.n_aps = p.aps_per_cell;
  shard.n_clients = p.users_per_cell;
  shard.duration_s = p.duration_s;
  shard.grid = p.grid;
  engine::TrialRunner plain({.base_seed = 21, .n_threads = 1});
  const auto reports = plain.run(2, [&shard](engine::TrialContext& ctx) {
    return run_cell_shard(ctx, shard);
  });
  double mean = 0.0;
  for (const CellShardReport& r : reports) {
    mean += r.mac.total_goodput_mbps;
    EXPECT_EQ(r.mean_interference, 0.0);
    EXPECT_EQ(r.churn.handoffs_out, 0u);
  }
  mean /= static_cast<double>(reports.size());
  EXPECT_EQ(via_metro.aggregate_goodput_mbps, mean);
  EXPECT_EQ(obs::registry_csv(sharded.registry()),
            obs::registry_csv(plain.registry()));
}

TEST(MetroScenario, ParamsFromEnvAppliesAndNormalizes) {
  ASSERT_EQ(setenv("JMB_CELLS", "6", 1), 0);
  ASSERT_EQ(setenv("JMB_USERS_PER_CELL", "5", 1), 0);
  ASSERT_EQ(setenv("JMB_CHURN_RATE", "2.5", 1), 0);
  MetroParams base;
  base.n_cells = 2;
  const MetroParams p = params_from_env(base);
  EXPECT_EQ(p.n_cells, 6u);
  EXPECT_EQ(p.users_per_cell, 5u);
  EXPECT_DOUBLE_EQ(p.churn_rate_hz, 2.5);
  EXPECT_EQ(p.grid.cols, 3u);  // ceil(sqrt(6))
  // Malformed values fall back (warn-once flags are process-static, so
  // only the value contract is checked here; env_u64/env_f64 warn-once
  // behaviour is covered in test_engine).
  ASSERT_EQ(setenv("JMB_CELLS", "6x", 1), 0);
  ASSERT_EQ(setenv("JMB_CHURN_RATE", "-1", 1), 0);
  const MetroParams q = params_from_env(base);
  EXPECT_EQ(q.n_cells, 2u);
  EXPECT_DOUBLE_EQ(q.churn_rate_hz, base.churn_rate_hz);
  ASSERT_EQ(unsetenv("JMB_CELLS"), 0);
  ASSERT_EQ(unsetenv("JMB_USERS_PER_CELL"), 0);
  ASSERT_EQ(unsetenv("JMB_CHURN_RATE"), 0);
}

}  // namespace
}  // namespace jmb::metro
