// Figure 9 — Scaling of network throughput with the number of APs.
//
// Paper method (Section 11.2): N APs and N clients placed per SNR band, 20
// topologies per point; compare total 802.11 throughput (one AP at a time,
// equal medium share) against JMB's joint transmissions.
//
// Paper result: 802.11 stays flat (23.6 / 14.9 / 7.75 Mb/s at high/med/low
// SNR); JMB grows linearly, reaching median gains of 9.4x / 9.1x / 8.1x at
// 10 APs.
//
// Each (band, N) grid point is one TrialRunner trial with its own
// deterministic RNG stream, so the tables are bit-identical for any
// JMB_THREADS.
#include <cstdio>

#include "bench_util.h"
#include "core/link_model.h"
#include "engine/env.h"
#include "engine/trial_runner.h"
#include "linalg/pinv.h"
#include "net/mac.h"

namespace {

using namespace jmb;

struct Point {
  double base_mbps = 0.0;
  double jmb_mbps = 0.0;
};

Point run_point(std::size_t n, const bench::SnrBand& band, int topologies,
                phy::PrecoderKind kind, engine::TrialContext& ctx) {
  Rng& rng = ctx.rng;
  net::MacParams mac;
  mac.duration_s = 0.1;
  // MAC-level inter-frame turnaround (SIFS-like). The paper's 150 us
  // USRP software turnaround is a software-radio artifact; see
  // EXPERIMENTS.md for the sensitivity of the gain to this knob.
  mac.airtime.turnaround_s = 16e-6;

  RunningStats base_acc, jmb_acc;
  for (int t = 0; t < topologies; ++t) {
    // Dense-deployment link budget; the joint channel is in the paper's
    // well-conditioned regime, so the beamforming scale carries only the
    // genuine harmonic/conditioning penalty relative to the best links.
    std::optional<core::Precoder> precoder;
    std::vector<std::vector<double>> gains;
    core::ChannelMatrixSet h(0, 0);
    {
      const auto timer = ctx.time_stage(engine::kStageMeasure);
      gains = bench::diverse_link_gains(n, n, band, rng);
      h = core::well_conditioned_channel_set(gains, rng);
    }
    {
      const auto timer = ctx.time_stage(engine::kStagePrecode);
      // JMB_PRECODER selects the weight rule; the default ZF config makes
      // build_kind bitwise-identical to Precoder::build.
      core::PrecoderConfig cfg;
      cfg.kind = kind;
      if (kind == phy::PrecoderKind::kRzf) {
        cfg.ridge = core::PrecoderConfig::mmse_ridge(n, 1.0);
      }
      precoder = core::Precoder::build_kind(h, cfg, &ctx.sink);
      if (precoder) {
        ctx.metrics->stage(engine::kStagePrecode)
            .add_condition(condition_number(h.at(0)));
      }
    }
    if (!precoder) continue;

    // Baseline: each client at its best AP, flat at the link budget (the
    // effective-SNR rate selector reduces real channels to exactly this).
    std::vector<rvec> base_snrs(n);
    for (std::size_t c = 0; c < n; ++c) {
      double best = 0.0;
      for (double g : gains[c]) best = std::max(best, g);
      base_snrs[c].assign(phy::kNumDataCarriers, best);
    }
    mac.seed = rng.next_u64();
    net::MacReport base;
    {
      const auto timer = ctx.time_stage(engine::kStageDecode);
      base = net::run_baseline_mac(
          n, [&](std::size_t c) { return net::LinkState{base_snrs[c]}; }, mac);
    }

    // JMB: per-transmission residual phase errors from a pre-drawn pool;
    // unit noise (gains are SNRs), so SINRs carry the conditioning cost.
    Rng err_rng(rng.next_u64());
    constexpr std::size_t kPool = 16;
    std::vector<std::vector<rvec>> pool;
    pool.reserve(kPool);
    {
      const auto timer = ctx.time_stage(engine::kStagePropagate);
      for (std::size_t i = 0; i < kPool; ++i) {
        pool.push_back(core::jmb_subcarrier_sinrs(
            h, *precoder, bench::kCalibratedPhaseSigma, 1.0, err_rng));
      }
    }
    std::size_t draw = 0;
    mac.seed = rng.next_u64();
    net::MacReport jmb;
    {
      const auto timer = ctx.time_stage(engine::kStageDecode);
      jmb = net::run_jmb_mac(
          n, n, n,
          [&](std::size_t c) {
            return net::LinkState{pool[(draw++ / n) % kPool][c]};
          },
          mac);
    }
    base_acc.add(base.total_goodput_mbps);
    jmb_acc.add(jmb.total_goodput_mbps);
  }
  return {base_acc.mean(), jmb_acc.mean()};
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::parse_options(argc, argv, "fig09_throughput_scaling");
  opts.seed = bench::seed_from(argc, argv);
  const auto seed = opts.seed;
  bench::banner("Fig. 9: total throughput vs number of APs (= clients)", seed);
  std::printf("12 topologies per point; 1500-byte frames; 10 MHz channel\n\n");

  const auto& bands = bench::snr_bands();
  constexpr std::size_t kMinN = 2, kMaxN = 10;
  const std::size_t per_band = kMaxN - kMinN + 1;
  opts.add_param("topologies_per_point", 12);
  opts.add_param("max_n", kMaxN);

  bool precoder_warned = false;
  const phy::PrecoderKind kind = engine::env_precoder_kind(precoder_warned);
  if (kind != phy::PrecoderKind::kZf) {
    std::printf("precoder: %s (JMB_PRECODER)\n\n",
                phy::precoder_kind_name(kind));
  }

  engine::TrialRunner runner({.base_seed = seed});
  const std::vector<Point> points =
      runner.run(bands.size() * per_band, [&](engine::TrialContext& ctx) {
        const std::size_t band_idx = ctx.index / per_band;
        const std::size_t n = kMinN + ctx.index % per_band;
        return run_point(n, bands[band_idx], 12, kind, ctx);
      });

  for (std::size_t b = 0; b < bands.size(); ++b) {
    std::printf("--- %s ---\n", bands[b].name);
    std::printf("%-6s %-16s %-16s %-10s\n", "N", "802.11 (Mb/s)",
                "JMB (Mb/s)", "gain");
    double gain_at_10 = 0.0;
    for (std::size_t n = kMinN; n <= kMaxN; ++n) {
      const Point& pt = points[b * per_band + (n - kMinN)];
      const double gain = pt.base_mbps > 0 ? pt.jmb_mbps / pt.base_mbps : 0.0;
      if (n == kMaxN) gain_at_10 = gain;
      std::printf("%-6zu %-16.1f %-16.1f %-10.2f\n", n, pt.base_mbps,
                  pt.jmb_mbps, gain);
    }
    std::printf("gain at 10 APs: %.1fx (paper: 9.4x high / 9.1x medium /"
                " 8.1x low)\n\n", gain_at_10);
  }
  return bench::finish(opts, runner);
}
