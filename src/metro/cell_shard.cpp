#include "metro/cell_shard.h"

#include <span>
#include <string>
#include <utility>

#include "fault/injector.h"
#include "fault/resilience.h"
#include "obs/bounds.h"

namespace jmb::metro {

namespace {

constexpr std::size_t kSinrPool = 8;  ///< pre-drawn entries per active set

}  // namespace

CellShardReport run_cell_shard(engine::TrialContext& ctx,
                               const CellShardParams& p) {
  Rng& rng = ctx.rng;
  CellShardReport rep;
  rep.cell = ctx.cell;

  Workspace ws;
  std::vector<std::vector<double>> gains;
  core::ChannelMatrixSet h(0, 0);
  {
    const auto timer = ctx.time_stage(engine::kStageMeasure);
    gains = chan::diverse_link_gains(p.n_aps, p.n_clients, p.lo_db, p.hi_db,
                                     rng);
    h = core::well_conditioned_channel_set(gains, rng);
  }

  // Cross-shard coupling derives from the *trial-level* seed (the cell
  // bits XORed back out), so both sides of a cell pair regenerate the
  // same draws no matter which shard runs first.
  const std::uint64_t trial_seed =
      ctx.seed ^ (static_cast<std::uint64_t>(ctx.cell) << 32);
  const std::vector<double> psd = chan::inter_cell_interference(
      ctx.cell, ctx.n_cells, p.grid, p.coupling, h.n_subcarriers(), trial_seed,
      {});
  double i_sum = 0.0;
  for (const double v : psd) i_sum += v;
  rep.mean_interference =
      psd.empty() ? 0.0 : i_sum / static_cast<double>(psd.size());

  net::MacParams mac;
  mac.duration_s = p.duration_s;
  mac.airtime.turnaround_s = p.turnaround_s;
  mac.seed = rng.next_u64();
  mac.record_latency = true;

  std::optional<CellChurn> churn;
  if (p.churn.departure_rate_hz > 0.0) {
    ChurnParams cp = p.churn;
    cp.users_per_cell = p.n_clients;
    cp.duration_s = p.duration_s;
    churn.emplace(trial_seed, ctx.cell, ctx.n_cells, p.grid, cp);
    mac.activity = churn->activity_fn();
    mac.remeasure_at = churn->remeasure_times();
    rep.churn = churn->stats();
    rep.remeasure_epochs = churn->remeasure_times().size();
  }

  const std::string cell_ns = "cell" + std::to_string(ctx.cell);
  {
    const auto timer = ctx.time_stage(engine::kStageDecode);
    // Per-active-mask SINR pools; neighbors' leakage divides every entry
    // (SINR[k] / (1 + I[k])) so it prices into rate selection. A cell
    // without interference passes no profile, leaving single-cell SINRs
    // untouched.
    core::MaskedSinrPool pools(
        h, ws, kSinrPool, Rng(rng.next_u64()),
        rep.mean_interference > 0.0 ? std::span<const double>(psd)
                                    : std::span<const double>());

    // Per-cluster controller: this cell elects its own lead from its own
    // surviving APs, and its health metrics merge under its namespace.
    fault::ResilienceParams rp;
    rp.metric_prefix = cell_ns + "/resilience";
    fault::ResilienceController ctrl(p.n_aps, rp, &ctx.sink);
    std::optional<fault::FaultSession> session;
    if (p.fault_plan != nullptr && !p.fault_plan->empty()) {
      session.emplace(*p.fault_plan, p.n_aps, trial_seed);
    }
    const auto links = [&pools](std::size_t c,
                                const std::vector<std::uint8_t>& mask) {
      return net::LinkState{pools.next(c, mask)};
    };
    rep.mac = net::run_jmb_mac_resilient(p.n_aps, p.n_clients, p.n_clients,
                                         links, mac,
                                         session ? &*session : nullptr, &ctrl);
  }

  // Per-cell physics under the cell namespace, grid-wide aggregates under
  // "metro/" — both live in this shard's registry and merge in (trial,
  // cell) order, so the exported aggregate is schedule-independent.
  ctx.sink.observe(cell_ns + "/goodput_mbps", obs::kMbpsBounds,
                   rep.mac.total_goodput_mbps);
  ctx.sink.count("metro/goodput_mbps_sum", rep.mac.total_goodput_mbps);
  ctx.sink.count("metro/joint_transmissions",
                 static_cast<double>(rep.mac.joint_transmissions));
  ctx.sink.count("metro/measurement_epochs",
                 static_cast<double>(rep.mac.measurement_epochs));
  for (const double v : rep.mac.frame_latency_s) {
    ctx.sink.observe("metro/frame_latency_s", obs::kLatencySBounds, v);
  }
  if (churn) {
    ctx.sink.count("metro/arrivals", static_cast<double>(rep.churn.arrivals));
    ctx.sink.count("metro/departures",
                   static_cast<double>(rep.churn.departures));
    ctx.sink.count("metro/handoffs_in",
                   static_cast<double>(rep.churn.handoffs_in));
    ctx.sink.count("metro/handoffs_out",
                   static_cast<double>(rep.churn.handoffs_out));
    ctx.sink.count("metro/blocked_handoffs",
                   static_cast<double>(rep.churn.blocked_handoffs));
  }
  return rep;
}

}  // namespace jmb::metro
