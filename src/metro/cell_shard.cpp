#include "metro/cell_shard.h"

#include <string>
#include <utility>

#include "fault/injector.h"
#include "fault/resilience.h"
#include "obs/bounds.h"

namespace jmb::metro {

namespace {

/// Residual per-slave phase-error sigma, calibrated against the
/// sample-level Fig. 7 distribution (median 0.017, 95th pct < 0.05 rad)
/// — the same operating point the throughput benches use.
constexpr double kPhaseSigma = 0.02;

/// Per-active-mask SINR pools behind a MaskedLinkStateFn (the
/// bench/resilience_curve idiom): each distinct joint set gets its own
/// reduced-H precoder and a pre-drawn pool of per-transmission SINR
/// vectors. The metro twist: the cell's inter-cell interference profile
/// divides every pool entry — SINR'[k] = SINR[k] / (1 + I[k]) — so
/// neighbors' leakage prices into rate selection. An all-zero profile
/// skips the division entirely, leaving single-cell SINRs untouched.
struct MaskedSinrPools {
  static constexpr std::size_t kPool = 8;

  const core::ChannelMatrixSet* h = nullptr;
  Workspace* ws = nullptr;
  std::size_t n_streams = 0;
  const std::vector<double>* interference = nullptr;
  bool has_interference = false;
  Rng err_rng{1};
  // Keyed on the packed active-AP bitmask (masks are <= 64 APs here),
  // which sidesteps a GCC 12 -Wstringop-overread misfire on the
  // vector<uint8_t> three-way compare inside std::map.
  std::map<std::uint64_t, std::vector<std::vector<rvec>>> pools;
  std::size_t draw = 0;

  net::LinkState state(std::size_t client,
                       const std::vector<std::uint8_t>& mask) {
    std::uint64_t key = 0;
    for (std::size_t a = 0; a < mask.size(); ++a) {
      if (mask[a]) key |= std::uint64_t{1} << (a % 64);
    }
    auto [it, fresh] = pools.try_emplace(key);
    if (fresh) {
      const auto precoder = core::Precoder::build_masked(*h, mask, *ws, 1.0);
      if (precoder) {
        it->second.reserve(kPool);
        for (std::size_t i = 0; i < kPool; ++i) {
          auto sinrs = core::jmb_subcarrier_sinrs(*h, *precoder, kPhaseSigma,
                                                  1.0, err_rng);
          if (has_interference) {
            for (rvec& per_client : sinrs) {
              for (std::size_t k = 0; k < per_client.size(); ++k) {
                per_client[k] /=
                    1.0 + (*interference)[k % interference->size()];
              }
            }
          }
          it->second.push_back(std::move(sinrs));
        }
      }
      // Too few survivors to zero-force every stream: leave the pool
      // empty; the zero-SNR link state below makes the slot an outage.
    }
    if (it->second.empty()) {
      return net::LinkState{rvec(h->n_subcarriers(), 0.0)};
    }
    return net::LinkState{it->second[(draw++ / n_streams) % kPool][client]};
  }

  net::MaskedLinkStateFn fn() {
    return [this](std::size_t c, const std::vector<std::uint8_t>& mask) {
      return state(c, mask);
    };
  }
};

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
    MaskedSinrPools pools{};
    pools.h = &h;
    pools.ws = &ws;
    pools.n_streams = p.n_clients;
    pools.interference = &psd;
    pools.has_interference = rep.mean_interference > 0.0;
    pools.err_rng = Rng(rng.next_u64());

    // Per-cluster controller: this cell elects its own lead from its own
    // surviving APs, and its health metrics merge under its namespace.
    fault::ResilienceParams rp;
    rp.metric_prefix = cell_ns + "/resilience";
    fault::ResilienceController ctrl(p.n_aps, rp, &ctx.sink);
    std::optional<fault::FaultSession> session;
    if (p.fault_plan != nullptr && !p.fault_plan->empty()) {
      session.emplace(*p.fault_plan, p.n_aps, trial_seed);
    }
    rep.mac = net::run_jmb_mac_resilient(p.n_aps, p.n_clients, p.n_clients,
                                         pools.fn(), mac,
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
