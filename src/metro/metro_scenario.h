// MetroScenario — a metro-scale deployment as one sharded TrialRunner
// job: a grid of cells, each an independent shard (metro::run_cell_shard)
// coupled only through deterministic, regenerable state (inter-cell
// interference and churn hand-offs). The scenario layer owns the
// trial × cell fan-out, the env-knob plumbing (JMB_CELLS,
// JMB_USERS_PER_CELL, JMB_CHURN_RATE), and the reduction to per-cell and
// aggregate summaries.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/trial_runner.h"
#include "metro/cell_shard.h"

namespace jmb::metro {

struct MetroParams {
  std::size_t n_cells = 4;
  std::size_t users_per_cell = 4;
  std::size_t aps_per_cell = 4;
  std::size_t n_trials = 3;  ///< topologies per (trial, cell) grid point
  double duration_s = 0.25;
  /// Symmetric churn: departure rate per attached user == re-attach rate
  /// per detached slot. 0 disables churn (bit-exact legacy MAC path).
  double churn_rate_hz = 0.0;
  chan::CellGridParams grid;  ///< cols is derived by normalize()
  /// Optional fault plan applied to every cell (per-cell session seeded
  /// from the trial seed); null = fault-free metro.
  const fault::FaultPlan* fault_plan = nullptr;

  /// Derive the grid shape from n_cells: near-square, cols = ceil(sqrt).
  void normalize();
};

/// Overlay the metro env knobs onto `base`: JMB_CELLS and
/// JMB_USERS_PER_CELL (strict positive integers), JMB_CHURN_RATE (strict
/// non-negative decimal, Hz). Malformed values keep the base value and
/// warn once per process per variable. normalize() is applied.
[[nodiscard]] MetroParams params_from_env(MetroParams base);

struct CellSummary {
  std::size_t cell = 0;
  double goodput_mbps = 0.0;       ///< mean over trials
  double mean_interference = 0.0;  ///< mean noise rise over trials
  std::size_t arrivals = 0;
  std::size_t departures = 0;
  std::size_t handoffs_in = 0;
  std::size_t handoffs_out = 0;
  std::size_t blocked_handoffs = 0;
  std::size_t lead_elections = 0;
  std::size_t quarantines = 0;
};

struct MetroResult {
  std::vector<CellSummary> per_cell;
  /// Sum over cells of per-cell mean goodput (the metro capacity figure).
  double aggregate_goodput_mbps = 0.0;
  /// 99th percentile enqueue->ACK latency over every delivered frame in
  /// every (trial, cell) shard. 0 when nothing was delivered.
  double p99_frame_latency_s = 0.0;
  std::size_t latency_samples = 0;
  // Grid-wide churn / resilience totals (all trials, all cells).
  std::size_t arrivals = 0;
  std::size_t departures = 0;
  std::size_t handoffs_in = 0;
  std::size_t handoffs_out = 0;
  std::size_t blocked_handoffs = 0;
  std::size_t lead_elections = 0;
  std::size_t quarantines = 0;
  std::size_t measurement_epochs = 0;
};

/// Run the scenario: n_trials × n_cells shards over the runner's pool,
/// reduced in (trial, cell) order. Deterministic for any JMB_THREADS and
/// any shard schedule. `first_trial` offsets the trial indices (and hence
/// seeds) so sweeps calling run_metro per configuration point keep every
/// grid point's RNG stream distinct.
[[nodiscard]] MetroResult run_metro(engine::TrialRunner& runner,
                                    const MetroParams& p,
                                    std::size_t first_trial = 0);

}  // namespace jmb::metro
