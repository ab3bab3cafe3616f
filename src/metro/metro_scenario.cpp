#include "metro/metro_scenario.h"

#include <algorithm>
#include <cmath>

#include "engine/env.h"

namespace jmb::metro {

void MetroParams::normalize() {
  grid.cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(std::max<std::size_t>(
          n_cells, 1)))));
}

MetroParams params_from_env(MetroParams base) {
  static bool warned_cells = false;
  static bool warned_users = false;
  static bool warned_churn = false;
  base.n_cells = engine::env_u64("JMB_CELLS", base.n_cells, /*min_one=*/true,
                                 warned_cells);
  base.users_per_cell =
      engine::env_u64("JMB_USERS_PER_CELL", base.users_per_cell,
                      /*min_one=*/true, warned_users);
  base.churn_rate_hz =
      engine::env_f64("JMB_CHURN_RATE", base.churn_rate_hz, warned_churn);
  base.normalize();
  return base;
}

MetroResult run_metro(engine::TrialRunner& runner, const MetroParams& p,
                      std::size_t first_trial) {
  CellShardParams shard;
  shard.n_aps = p.aps_per_cell;
  shard.n_clients = p.users_per_cell;
  shard.duration_s = p.duration_s;
  shard.grid = p.grid;
  shard.churn.users_per_cell = p.users_per_cell;
  shard.churn.arrival_rate_hz = p.churn_rate_hz;
  shard.churn.departure_rate_hz = p.churn_rate_hz;
  shard.churn.duration_s = p.duration_s;
  shard.fault_plan = p.fault_plan;

  const std::vector<CellShardReport> reports = runner.run_sharded(
      p.n_trials, p.n_cells,
      [&shard](engine::TrialContext& ctx) {
        return run_cell_shard(ctx, shard);
      },
      first_trial);

  MetroResult out;
  out.per_cell.resize(p.n_cells);
  std::vector<double> latencies;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CellShardReport& r = reports[i];
    CellSummary& c = out.per_cell[i % p.n_cells];
    c.cell = r.cell;
    c.goodput_mbps += r.mac.total_goodput_mbps;
    c.mean_interference += r.mean_interference;
    c.arrivals += r.churn.arrivals;
    c.departures += r.churn.departures;
    c.handoffs_in += r.churn.handoffs_in;
    c.handoffs_out += r.churn.handoffs_out;
    c.blocked_handoffs += r.churn.blocked_handoffs;
    c.lead_elections += r.mac.lead_elections;
    c.quarantines += r.mac.quarantines;
    out.measurement_epochs += r.mac.measurement_epochs;
    latencies.insert(latencies.end(), r.mac.frame_latency_s.begin(),
                     r.mac.frame_latency_s.end());
  }
  const double inv_trials =
      p.n_trials > 0 ? 1.0 / static_cast<double>(p.n_trials) : 0.0;
  for (CellSummary& c : out.per_cell) {
    c.goodput_mbps *= inv_trials;
    c.mean_interference *= inv_trials;
    out.aggregate_goodput_mbps += c.goodput_mbps;
    out.arrivals += c.arrivals;
    out.departures += c.departures;
    out.handoffs_in += c.handoffs_in;
    out.handoffs_out += c.handoffs_out;
    out.blocked_handoffs += c.blocked_handoffs;
    out.lead_elections += c.lead_elections;
    out.quarantines += c.quarantines;
  }

  out.latency_samples = latencies.size();
  if (!latencies.empty()) {
    // Nearest-rank p99 over the sorted pool: schedule-independent because
    // sorting erases the (deterministic) concatenation order anyway.
    std::sort(latencies.begin(), latencies.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(latencies.size())));
    out.p99_frame_latency_s = latencies[rank > 0 ? rank - 1 : 0];
  }
  return out;
}

}  // namespace jmb::metro
