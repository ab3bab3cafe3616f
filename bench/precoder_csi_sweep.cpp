// Precoder zoo vs CSI quality — throughput per precoder (ZF / regularized
// ZF / conjugate) as the channel knowledge degrades, the ROADMAP item 2
// deliverable.
//
// Not a paper figure: the paper commits to zero forcing and measures it
// with fresh CSI. This sweep asks what the paper could not — which
// precoder survives stale or quantized feedback at scale. Method: more
// active users than spatial streams (greedy semi-orthogonal selection
// picks the served subset), Rayleigh channels WITHOUT the paper's
// well-conditioned orthogonalization (conditioning variance is the point),
// and a CSI impairment grid over staleness (in coherence intervals, aged
// by the AR(1) model in phy/precoding.h) x feedback quantization bits.
//
// One trial = one topology evaluating the WHOLE grid: every grid point
// and every precoder kind share that topology's true channel, aging
// innovations, MAC seed, and phase-error draws, so the curve is fully
// paired — differences isolate (impairment, weight rule), not channel or
// traffic luck. The precoder is built from the IMPAIRED channel and
// evaluated against the TRUE one, so CSI error shows up as genuine
// inter-stream leakage. The regularized solve prices the impairment into
// its ridge via phy::csi_error_power (the MMSE matching).
//
// The MAC's measurement-epoch hook (MacParams::on_measure) rotates the
// SINR pool, so CSI refresh cadence — not just per-transmission fading —
// shapes the delivered goodput.
//
// Each topology is one TrialRunner trial with its own RNG stream, so
// exports are byte-identical for any JMB_THREADS.
#include <algorithm>
#include <cstdio>
#include <string_view>

#include "bench_util.h"
#include "core/link_model.h"
#include "core/precoder.h"
#include "engine/pipeline.h"
#include "engine/trial_runner.h"
#include "net/mac.h"
#include "obs/bounds.h"
#include "phy/precoding.h"

namespace {

using namespace jmb;

constexpr std::size_t kAps = 4;    // transmit antennas (one per AP)
constexpr std::size_t kUsers = 6;  // K > N: greedy selection every trial
constexpr std::size_t kSinrPool = 8;

constexpr phy::PrecoderKind kKinds[] = {phy::PrecoderKind::kZf,
                                        phy::PrecoderKind::kRzf,
                                        phy::PrecoderKind::kConj};
constexpr std::size_t kNumKinds = sizeof(kKinds) / sizeof(kKinds[0]);

/// The CSI-quality grid: staleness in coherence intervals x feedback bits
/// per real component (0 = full precision).
struct CsiPoint {
  double staleness;
  unsigned bits;
};
constexpr CsiPoint kGrid[] = {{0.0, 0},  {0.005, 0}, {0.01, 0}, {0.02, 0},
                              {0.04, 0}, {0.0, 8},   {0.0, 6},  {0.0, 5},
                              {0.02, 6}};
constexpr std::size_t kGridSize = sizeof(kGrid) / sizeof(kGrid[0]);
/// Grid index of the headline stale+quantized regime for the "precoder"
/// artifact object.
constexpr std::size_t kHeadlineIdx = 8;

/// One topology's goodput at every (grid point, kind) — the whole CSI
/// curve is paired on a single true channel per trial.
struct TrialResult {
  double goodput_mbps[kGridSize][kNumKinds] = {};
  double condition[kGridSize] = {};  ///< of the impaired channel inverted
};

TrialResult run_trial(double duration_s, engine::TrialContext& ctx) {
  Rng& rng = ctx.rng;
  TrialResult out;

  // Medium-band Rayleigh links (rice_k = 0): no LOS component and no
  // orthogonalization, so per-subcarrier conditioning varies freely.
  std::vector<std::vector<double>> gains;
  core::ChannelMatrixSet h_true(0, 0);
  {
    const auto timer = ctx.time_stage(engine::kStageMeasure);
    gains = bench::diverse_link_gains(kAps, kUsers, bench::snr_bands()[1],
                                      rng);
    h_true = core::random_channel_set_with_gains(gains, rng);
  }

  double mean_power = 0.0;
  for (const auto& row : gains) {
    for (const double g : row) mean_power += g;
  }
  mean_power /= static_cast<double>(kUsers * kAps);

  // One seed triple per trial, shared by every grid point and every kind:
  // the same aging innovations, the same MAC arrivals, and the same phase
  // -error draws everywhere, so the sweep isolates (impairment, weight
  // rule) — not channel or traffic luck.
  const std::uint64_t csi_seed = rng.next_u64();
  const std::uint64_t mac_seed = rng.next_u64();
  const std::uint64_t err_seed = rng.next_u64();

  for (std::size_t p = 0; p < kGridSize; ++p) {
    const phy::CsiImpairment imp{kGrid[p].staleness, kGrid[p].bits};

    // The feedback every precoder sees: aged, then quantized, copies of
    // the truth (phy/precoding.h). A null impairment leaves h_csi a
    // bitwise copy and the RNG untouched.
    core::ChannelMatrixSet h_csi(0, 0);
    {
      const auto timer = ctx.time_stage(engine::kStageMeasure);
      h_csi = h_true;
      Rng csi_rng(csi_seed);
      for (std::size_t k = 0; k < h_csi.n_subcarriers(); ++k) {
        phy::impair_csi(h_csi.at(k), imp, csi_rng);
      }
    }

    // One served subset per grid point, chosen from the impaired CSI (the
    // AP cluster cannot select on a channel it has not seen). The
    // selection is kind-independent, so every kind serves the same users.
    const std::vector<std::size_t> sel =
        core::Precoder::greedy_select(h_csi, kAps);
    if (sel.empty()) continue;
    const std::size_t n_sel = sel.size();
    const core::ChannelMatrixSet sub_csi = core::client_subset(h_csi, sel);
    const core::ChannelMatrixSet sub_true = core::client_subset(h_true, sel);
    out.condition[p] = engine::mean_condition_number(sub_csi);
    ctx.sink.observe("precoder_sweep/cond", obs::kCondBounds,
                     out.condition[p]);

    for (std::size_t ki = 0; ki < kNumKinds; ++ki) {
      core::PrecoderConfig cfg;
      cfg.kind = kKinds[ki];
      if (cfg.kind == phy::PrecoderKind::kRzf) {
        // MMSE matching: the ridge prices receiver noise (unit — gains
        // are SNRs) plus the residual CSI error power scaled to the link
        // budget.
        const double eff_noise =
            1.0 + phy::csi_error_power(imp) * mean_power;
        cfg.ridge = core::PrecoderConfig::mmse_ridge(n_sel, eff_noise);
      }
      std::optional<core::Precoder> precoder;
      {
        const auto timer = ctx.time_stage(engine::kStagePrecode);
        precoder = core::Precoder::build_kind(sub_csi, cfg, &ctx.sink);
      }
      if (!precoder) continue;

      // Weights from the impaired CSI, physics from the true channel: the
      // SINRs carry the real cost of the feedback error per weight rule.
      Rng err_rng(err_seed);
      std::optional<core::SinrPool> pool;
      {
        const auto timer = ctx.time_stage(engine::kStagePropagate);
        pool.emplace(sub_true, *precoder, kSinrPool, err_rng);
      }

      net::MacParams mac;
      mac.duration_s = duration_s;
      mac.airtime.turnaround_s = 16e-6;  // SIFS-like, as in fig09
      mac.seed = mac_seed;
      // Each measurement epoch refreshes the CSI: jump the pool so the
      // post-measure fading draws differ from the pre-measure ones.
      mac.on_measure = [&](std::size_t epoch, double) {
        pool->set_offset(epoch * 3);
      };
      net::MacReport report;
      {
        const auto timer = ctx.time_stage(engine::kStageDecode);
        report = net::run_jmb_mac(
            kAps, n_sel, n_sel,
            [&](std::size_t c) { return net::LinkState{pool->next(c)}; },
            mac);
      }
      out.goodput_mbps[p][ki] = report.total_goodput_mbps;
      ctx.sink.observe(cfg.kind == phy::PrecoderKind::kZf
                           ? "precoder_sweep/goodput_zf"
                       : cfg.kind == phy::PrecoderKind::kRzf
                           ? "precoder_sweep/goodput_rzf"
                           : "precoder_sweep/goodput_conj",
                       obs::kMbpsBounds, report.total_goodput_mbps);
    }
  }
  return out;
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
  auto opts = bench::parse_options(argc, argv, "precoder_csi_sweep");
  opts.info.seed = bench::seed_from(argc, argv);
  const auto seed = opts.info.seed;

  const std::size_t topologies = quick ? 4 : 8;
  const double duration_s = quick ? 0.05 : 0.08;

  bench::banner(
      "Precoder zoo vs CSI quality: ZF / regularized-ZF / conjugate under "
      "stale + quantized feedback",
      seed);
  std::printf(
      "%zu AP antennas, %zu users (greedy selection), %zu topologies "
      "paired across the grid; %.2f s MAC runs\n\n",
      kAps, kUsers, topologies, duration_s);

  opts.add_param("n_aps", static_cast<double>(kAps));
  opts.add_param("n_users", static_cast<double>(kUsers));
  opts.add_param("topologies", static_cast<double>(topologies));
  opts.add_param("duration_s", duration_s);
  opts.add_param("grid_points", static_cast<double>(kGridSize));
  opts.add_param("sinr_pool", static_cast<double>(kSinrPool));

  engine::TrialRunner runner({.base_seed = seed});
  const std::vector<TrialResult> results =
      runner.run(topologies, [&](engine::TrialContext& ctx) {
        return run_trial(duration_s, ctx);
      });

  std::printf("%-12s %-6s %-12s %-12s %-12s %-10s\n", "staleness", "bits",
              "zf (Mb/s)", "rzf (Mb/s)", "conj (Mb/s)", "rzf/zf");
  double mean_cond = 0.0;
  double headline[kNumKinds] = {0.0, 0.0, 0.0};
  for (std::size_t p = 0; p < kGridSize; ++p) {
    double mean[kNumKinds] = {0.0, 0.0, 0.0};
    for (const TrialResult& r : results) {
      for (std::size_t ki = 0; ki < kNumKinds; ++ki) {
        mean[ki] += r.goodput_mbps[p][ki];
      }
      mean_cond += r.condition[p];
    }
    for (std::size_t ki = 0; ki < kNumKinds; ++ki) {
      mean[ki] /= static_cast<double>(topologies);
    }
    if (p == kHeadlineIdx) {
      for (std::size_t ki = 0; ki < kNumKinds; ++ki) headline[ki] = mean[ki];
    }
    std::printf("%-12.3f %-6u %-12.1f %-12.1f %-12.1f %-10.2f\n",
                kGrid[p].staleness, kGrid[p].bits, mean[0], mean[1], mean[2],
                mean[0] > 0.0 ? mean[1] / mean[0] : 0.0);
  }
  mean_cond /= static_cast<double>(results.size() * kGridSize);

  obs::PrecoderSummary summary;
  summary.staleness = kGrid[kHeadlineIdx].staleness;
  summary.feedback_bits = kGrid[kHeadlineIdx].bits;
  summary.zf_goodput_mbps = headline[0];
  summary.rzf_goodput_mbps = headline[1];
  summary.conj_goodput_mbps = headline[2];
  summary.rzf_over_zf =
      headline[0] > 0.0 ? headline[1] / headline[0] : 0.0;
  summary.mean_condition = std::max(1.0, mean_cond);
  const std::size_t best = static_cast<std::size_t>(
      std::max_element(headline, headline + kNumKinds) - headline);
  summary.headline_kind = phy::precoder_kind_name(kKinds[best]);
  opts.set_precoder(summary);

  std::printf(
      "\nheadline (staleness %.3f, %u bits): zf %.1f, rzf %.1f, conj %.1f "
      "Mb/s -> rzf/zf %.2fx, best: %s\n",
      summary.staleness, static_cast<unsigned>(summary.feedback_bits),
      summary.zf_goodput_mbps, summary.rzf_goodput_mbps,
      summary.conj_goodput_mbps, summary.rzf_over_zf,
      summary.headline_kind.c_str());
  return bench::finish(opts, runner);
}
