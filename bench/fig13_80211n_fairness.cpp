// Figure 13 — Fairness with off-the-shelf 802.11n cards: CDF of the
// per-run throughput gain.
//
// Paper result: gains between 1.65x and 2x across all runs, median 1.8x.
#include <cmath>
#include <cstdio>
#include <optional>

#include "bench_util.h"
#include "core/compat11n.h"
#include "engine/trial_runner.h"

namespace {

using namespace jmb;

// 802.11n channel width: one 20 MHz spatial stream per goodput sample.
constexpr double kSampleRateHz = 20e6;

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::parse_options(argc, argv, "fig13_80211n_fairness");
  opts.info.seed = bench::seed_from(argc, argv);
  const auto seed = opts.info.seed;
  bench::banner("Fig. 13: CDF of 802.11n-compat throughput gain", seed);

  // One trial per run on its own RNG stream (seed ^ run index).
  constexpr std::size_t kRuns = 120;
  opts.add_param("runs", kRuns);
  engine::TrialRunner runner({.base_seed = seed});
  const auto per_run = runner.run(kRuns, [&](engine::TrialContext& ctx) {
    core::Compat11nParams p;
    // Sweep the full operational range like the paper.
    p.effective_snr_db = ctx.rng.uniform(8.0, 26.0);
    std::optional<core::Compat11nResult> r;
    {
      const auto timer = ctx.time_stage(engine::kStagePropagate);
      r = core::run_compat11n(p, ctx.rng);
    }
    const auto timer = ctx.time_stage(engine::kStageDecode);
    double jmb = 0.0, base = 0.0;
    for (const rvec& s : r->jmb_stream_sinr) {
      jmb += bench::saturated_goodput_mbps(s, kSampleRateHz);
    }
    for (const rvec& s : r->baseline_stream_snr) {
      base += bench::saturated_goodput_mbps(s, kSampleRateHz);
    }
    base /= 2.0;
    return base > 1.0 ? jmb / base : std::nan("");
  });

  rvec gains;
  for (double g : per_run) {
    if (!std::isnan(g)) gains.push_back(g);
  }
  std::printf("runs: %zu\n\n%-12s %-8s\n", gains.size(), "percentile", "gain");
  for (double q : {0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95}) {
    std::printf("%-12.2f %-8.2f\n", q, percentile(gains, q));
  }
  std::printf("\nmedian gain = %.2fx (paper: 1.8x; range 1.65-2x)\n",
              median(gains));
  return bench::finish(opts, runner);
}
