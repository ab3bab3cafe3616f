// Figure 10 — Fairness: CDF of per-client throughput gain.
//
// Paper method (Section 11.3): same runs as Fig. 9; per-client gain is the
// ratio of a node's JMB throughput to its 802.11 throughput.
//
// Paper result: all clients see roughly the N-fold gain; the CDF is wider
// at low SNR (measurement noise spreads per-client rates).
#include <cstdio>

#include "bench_util.h"
#include "core/link_model.h"
#include "engine/trial_runner.h"
#include "linalg/pinv.h"
#include "net/mac.h"

namespace {

using namespace jmb;

constexpr std::size_t kSizes[] = {2, 6, 10};

rvec run_cell(const bench::SnrBand& band, std::size_t n, std::uint64_t seed,
              engine::TrialContext& ctx) {
  constexpr int kTopologies = 12;
  // Historical derivation (seed + n) kept so tables are unchanged.
  Rng rng(seed + n);
  rvec gains_cdf;
  for (int t = 0; t < kTopologies; ++t) {
    std::vector<std::vector<double>> gains;
    core::ChannelMatrixSet h(0, 0);
    {
      const auto timer = ctx.time_stage(engine::kStageMeasure);
      gains = bench::diverse_link_gains(n, n, band, rng);
      h = core::well_conditioned_channel_set(gains, rng);
    }
    std::optional<core::Precoder> precoder;
    {
      const auto timer = ctx.time_stage(engine::kStagePrecode);
      precoder = core::Precoder::build(h, 1.0, &ctx.sink);
      if (precoder) {
        ctx.metrics->stage(engine::kStagePrecode)
            .add_condition(condition_number(h.at(0)));
      }
    }
    if (!precoder) continue;

    net::MacParams mac;
    mac.duration_s = 0.1;
    mac.airtime.turnaround_s = 16e-6;
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
    Rng err_rng(rng.next_u64());
    constexpr std::size_t kPool = 16;
    std::vector<std::vector<rvec>> pool;
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
    for (std::size_t c = 0; c < n; ++c) {
      if (base.per_client[c].goodput_mbps > 0.1) {
        gains_cdf.push_back(jmb.per_client[c].goodput_mbps /
                            base.per_client[c].goodput_mbps);
      }
    }
  }
  return gains_cdf;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::parse_options(argc, argv, "fig10_fairness");
  opts.seed = bench::seed_from(argc, argv);
  const auto seed = opts.seed;
  bench::banner("Fig. 10: CDF of per-client throughput gain", seed);
  std::printf(
      "per-client gain = client JMB goodput / client 802.11 goodput\n\n");

  const auto& bands = bench::snr_bands();
  const std::size_t n_sizes = std::size(kSizes);
  opts.add_param("sizes", static_cast<double>(n_sizes));
  opts.add_param("bands", static_cast<double>(bands.size()));

  engine::TrialRunner runner({.base_seed = seed});
  const auto cells = runner.run(
      bands.size() * n_sizes, [&](engine::TrialContext& ctx) {
        const auto& band = bands[ctx.index / n_sizes];
        const std::size_t n = kSizes[ctx.index % n_sizes];
        return run_cell(band, n, seed, ctx);
      });

  for (std::size_t b = 0; b < bands.size(); ++b) {
    std::printf("--- %s ---\n", bands[b].name);
    std::printf("%-6s %-8s %-8s %-8s %-8s %-8s %-8s\n", "N", "p10", "p25",
                "p50", "p75", "p90", "spread");
    for (std::size_t s = 0; s < n_sizes; ++s) {
      const rvec& gains_cdf = cells[b * n_sizes + s];
      if (gains_cdf.empty()) continue;
      const double p10 = percentile(gains_cdf, 0.10);
      const double p90 = percentile(gains_cdf, 0.90);
      std::printf("%-6zu %-8.2f %-8.2f %-8.2f %-8.2f %-8.2f %-8.2f\n",
                  kSizes[s], p10, percentile(gains_cdf, 0.25),
                  percentile(gains_cdf, 0.50), percentile(gains_cdf, 0.75),
                  p90, p90 - p10);
    }
    std::printf("\n");
  }
  std::printf("paper: per-client gains cluster near N at every SNR; CDFs"
              " widen at low SNR.\n");
  return bench::finish(opts, runner);
}
