// CellShard — one cell of a metro-scale trial, simulated as an
// independent shard.
//
// A shard owns everything one JMB cluster needs: its own link budget and
// channel snapshot (drawn from the shard's private RNG stream), its own
// precoder Workspace, its own masked-precoder SINR pools, an optional
// per-cell FaultSession, and a per-cluster ResilienceController whose
// metrics are namespaced "cell<N>/resilience/..." so merged registries
// keep clusters apart. Coupling to the rest of the grid enters in two
// shard-local, deterministic ways: inter-cell interference regenerated
// from the trial seed (chan::inter_cell_interference), and user hand-offs
// reconstructed from neighbors' churn timelines (metro::CellChurn). No
// shard ever reads another shard's state.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "chan/topology.h"
#include "core/link_model.h"
#include "engine/trial_runner.h"
#include "fault/plan.h"
#include "metro/churn.h"
#include "net/mac.h"
#include "phy/workspace.h"

namespace jmb::metro {

struct CellShardParams {
  std::size_t n_aps = 4;
  std::size_t n_clients = 4;  ///< user slots (JMB_USERS_PER_CELL)
  double duration_s = 0.25;
  chan::CellGridParams grid;
  ChurnParams churn;  ///< zero rates = no churn (legacy MAC path)
  /// Optional per-cell fault plan; null = fault-free cell.
  const fault::FaultPlan* fault_plan = nullptr;
};

struct CellShardReport {
  std::size_t cell = 0;
  net::MacReport mac;
  ChurnStats churn;
  /// Mean inter-cell interference over subcarriers (noise-rise units).
  double mean_interference = 0.0;
  std::size_t remeasure_epochs = 0;  ///< forced by hand-off arrivals
};

/// Run one cell's full trial body using the closed-form link model fast
/// path (well-conditioned H + masked ZF pools, as the throughput benches
/// use). `ctx` supplies the shard's RNG stream, cell index, metrics set
/// and obs sink; per-cell physics metrics are published under
/// "cell<cell>/...".
[[nodiscard]] CellShardReport run_cell_shard(engine::TrialContext& ctx,
                                             const CellShardParams& p);

}  // namespace jmb::metro
