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
#include "engine/env.h"
#include "engine/trial_runner.h"

namespace {

using namespace jmb;

struct Point {
  double base_mbps = 0.0;
  double jmb_mbps = 0.0;
};

Point run_point(std::size_t n, const bench::SnrBand& band, int topologies,
                phy::PrecoderKind kind, engine::TrialContext& ctx) {
  RunningStats base_acc, jmb_acc;
  for (int t = 0; t < topologies; ++t) {
    const auto run = bench::run_scaling_topology(n, band, kind, ctx.rng, ctx);
    if (!run) continue;
    base_acc.add(run->base.total_goodput_mbps);
    jmb_acc.add(run->jmb.total_goodput_mbps);
  }
  return {base_acc.mean(), jmb_acc.mean()};
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::parse_options(argc, argv, "fig09_throughput_scaling");
  opts.info.seed = bench::seed_from(argc, argv);
  const auto seed = opts.info.seed;
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
