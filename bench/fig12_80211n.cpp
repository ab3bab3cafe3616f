// Figure 12 — Throughput with off-the-shelf 802.11n cards.
//
// Paper method (Section 11.5): two 2-antenna APs jointly serve two
// 2-antenna 802.11n clients (4 concurrent streams) using the Section 6.2
// reference-antenna channel measurement; the baseline is standard 802.11n
// (one 2x2 AP at a time, equal medium share). 20 MHz channel.
//
// Paper result: average gain 1.67-1.83x across high/medium/low SNR bands
// (theoretical maximum 2x), larger at high SNR.
#include <cstdio>
#include <optional>
#include <utility>

#include "bench_util.h"
#include "core/compat11n.h"
#include "engine/trial_runner.h"

namespace {

using namespace jmb;

// 802.11n channel width: one 20 MHz spatial stream per goodput sample.
constexpr double kSampleRateHz = 20e6;

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::parse_options(argc, argv, "fig12_80211n");
  opts.info.seed = bench::seed_from(argc, argv);
  const auto seed = opts.info.seed;
  bench::banner(
      "Fig. 12: JMB with off-the-shelf 802.11n clients (2x 2-ant APs, 2x "
      "2-ant clients)", seed);

  constexpr int kRuns = 30;
  const double band_centers[3] = {22.0, 15.0, 9.0};
  const auto& bands = bench::snr_bands();
  opts.add_param("runs_per_band", kRuns);

  // One trial per SNR band, keeping the historical seed + band derivation.
  engine::TrialRunner runner({.base_seed = seed});
  const auto rows = runner.run(bands.size(), [&](engine::TrialContext& ctx) {
    const auto& band = bands[ctx.index];
    Rng rng(seed + static_cast<std::uint64_t>(ctx.index));
    RunningStats base_acc, jmb_acc;
    for (int run = 0; run < kRuns; ++run) {
      core::Compat11nParams p;
      p.effective_snr_db = rng.uniform(band.lo_db, std::min(band.hi_db, 26.0));
      p.link_gain = from_db(band_centers[ctx.index]);
      std::optional<core::Compat11nResult> r;
      {
        const auto timer = ctx.time_stage(engine::kStagePropagate);
        r = core::run_compat11n(p, rng);
      }
      const auto timer = ctx.time_stage(engine::kStageDecode);
      // JMB: all 4 streams concurrent.
      double jmb = 0.0;
      for (const rvec& s : r->jmb_stream_sinr) {
        jmb += bench::saturated_goodput_mbps(s, kSampleRateHz);
      }
      // Baseline: each client's 2 streams, but clients time-share.
      double base = 0.0;
      for (const rvec& s : r->baseline_stream_snr) {
        base += bench::saturated_goodput_mbps(s, kSampleRateHz);
      }
      base /= 2.0;
      if (base > 1.0) {
        base_acc.add(base);
        jmb_acc.add(jmb);
      }
    }
    return std::pair<double, double>{base_acc.mean(), jmb_acc.mean()};
  });

  std::printf("%-20s %-16s %-14s %-8s\n", "band", "802.11n (Mb/s)",
              "JMB (Mb/s)", "gain");
  for (std::size_t b = 0; b < bands.size(); ++b) {
    std::printf("%-20s %-16.1f %-14.1f %-8.2f\n", bands[b].name,
                rows[b].first, rows[b].second, rows[b].second / rows[b].first);
  }
  std::printf("\npaper: average gain 1.67-1.83x (2x theoretical), larger at"
              " high SNR.\n");
  return bench::finish(opts, runner);
}
