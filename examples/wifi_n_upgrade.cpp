// Upgrading an 802.11n deployment (Section 6): keep the clients, replace
// only the AP infrastructure. Two 2-antenna APs measure channels through
// standard 2-stream soundings with the reference-antenna trick, then serve
// two stock 2x2 clients with four concurrent streams.
//
//   ./build/examples/wifi_n_upgrade [seed]
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "bench_util.h"
#include "core/compat11n.h"
#include "engine/trial_runner.h"

int main(int argc, char** argv) {
  using namespace jmb;
  auto opts = bench::parse_options(argc, argv, "wifi_n_upgrade");
  const std::uint64_t seed =
      argc > 1 ? bench::parse_seed_or_die(argv[1], "argv[1]", argv[0]) : 11;
  opts.info.seed = seed;

  engine::TrialRunner runner(
      {.base_seed = seed, .n_threads = 1});
  const auto results = runner.run(1, [&](engine::TrialContext& ctx) {
    Rng rng(seed);  // historical seeding: the run reproduces exactly
    core::Compat11nParams p;
    p.effective_snr_db = 22.0;
    const auto timer = ctx.time_stage(engine::kStagePropagate);
    return core::run_compat11n(p, rng);
  });
  const core::Compat11nResult& r = results[0];

  std::printf("Reference-antenna channel measurement (Section 6.2):\n");
  std::printf("  reconstruction error with the trick: %.1f%%\n",
              100.0 * r.reconstruction_rel_err);
  std::printf("  naive stitching of stale soundings:  %.1f%%\n\n",
              100.0 * r.naive_rel_err);

  double jmb = 0.0, base = 0.0;
  std::printf("per-stream goodput (20 MHz, 1500-byte frames):\n");
  for (std::size_t s = 0; s < r.jmb_stream_sinr.size(); ++s) {
    const double g = bench::saturated_goodput_mbps(r.jmb_stream_sinr[s],
                                                   bench::kHtSampleRateHz);
    std::printf("  JMB stream %zu (client %zu, antenna %zu): %.1f Mb/s\n", s,
                s / 2, s % 2, g);
    jmb += g;
  }
  for (const rvec& s : r.baseline_stream_snr) {
    base += bench::saturated_goodput_mbps(s, bench::kHtSampleRateHz);
  }
  base /= 2.0;  // stock 802.11n: clients time-share the channel

  std::printf("\ntotal with stock 802.11n (time-shared 2x2): %.1f Mb/s\n",
              base);
  std::printf("total with JMB APs (4 concurrent streams):  %.1f Mb/s\n", jmb);
  std::printf("gain: %.2fx  (paper: 1.67-1.83x, 2x theoretical)\n",
              base > 0 ? jmb / base : 0.0);
  std::printf("\nNo client modification: the sync header hides in the legacy"
              " prefix of\nmixed-mode 802.11n frames, and channel snapshots"
              " come from standard CSI\nfeedback stitched with the reference"
              " antenna.\n");
  return bench::finish(opts, runner);
}
