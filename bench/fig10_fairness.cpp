// Figure 10 — Fairness: CDF of per-client throughput gain.
//
// Paper method (Section 11.3): same runs as Fig. 9; per-client gain is the
// ratio of a node's JMB throughput to its 802.11 throughput. Each topology
// is Fig. 9's trial body (bench::run_scaling_topology) with ZF weights.
//
// Paper result: all clients see roughly the N-fold gain; the CDF is wider
// at low SNR (measurement noise spreads per-client rates).
#include <cstdio>

#include "bench_util.h"
#include "engine/trial_runner.h"

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
    const auto run = bench::run_scaling_topology(
        n, band, phy::PrecoderKind::kZf, rng, ctx);
    if (!run) continue;
    for (std::size_t c = 0; c < n; ++c) {
      const double base = run->base.per_client[c].goodput_mbps;
      if (base > 0.1) {
        gains_cdf.push_back(run->jmb.per_client[c].goodput_mbps / base);
        ctx.sink.observe("fig10/client_gain", obs::kGainBounds,
                         gains_cdf.back());
      }
    }
  }
  return gains_cdf;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::parse_options(argc, argv, "fig10_fairness");
  opts.info.seed = bench::seed_from(argc, argv);
  const auto seed = opts.info.seed;
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
