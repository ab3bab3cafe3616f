// Figure 11 — Diversity throughput vs SNR for 2..10 APs.
//
// Paper method (Section 11.4): one client with roughly equal SNR to all
// APs; all APs beamform the same stream to it (distributed MRT); compare
// against a single 802.11 transmitter across the operational SNR range.
//
// Paper result: large gains at low SNR — a client with 0 dB links (useless
// under 802.11) reaches ~21 Mb/s with 10 APs; coherent combining gives an
// N^2 SNR boost.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/link_model.h"
#include "engine/trial_runner.h"

namespace {

using namespace jmb;

constexpr std::size_t kApCounts[] = {2, 4, 6, 8, 10};

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::parse_options(argc, argv, "fig11_diversity");
  opts.info.seed = bench::seed_from(argc, argv);
  const auto seed = opts.info.seed;
  bench::banner("Fig. 11: diversity throughput vs per-link SNR", seed);
  std::printf("single client; all APs beamform the same stream (MRT)\n\n");

  constexpr int kTrials = 40;
  std::vector<double> snr_grid;
  for (double snr_db = 0.0; snr_db <= 25.01; snr_db += 2.5) {
    snr_grid.push_back(snr_db);
  }
  opts.add_param("trials_per_cell", kTrials);
  opts.add_param("snr_rows", static_cast<double>(snr_grid.size()));

  // One trial per SNR row. Every column reseeds a fresh Rng(seed), as the
  // original sweep did, so all columns share the same channel draws.
  engine::TrialRunner runner({.base_seed = seed});
  const auto rows =
      runner.run(snr_grid.size(), [&](engine::TrialContext& ctx) {
        const double snr_db = snr_grid[ctx.index];
        std::vector<double> cols;
        // 802.11 baseline: one AP, one Rayleigh/Rician link at snr_db.
        {
          Rng rng(seed);
          RunningStats acc;
          for (int t = 0; t < kTrials; ++t) {
            core::ChannelMatrixSet h(0, 0);
            {
              const auto timer = ctx.time_stage(engine::kStageMeasure);
              h = core::random_channel_set_with_gains({{from_db(snr_db)}},
                                                      rng, 52, 2.0);
            }
            rvec sub(h.n_subcarriers());
            for (std::size_t k = 0; k < sub.size(); ++k) {
              sub[k] = std::norm(h.at(k)(0, 0));
            }
            const auto timer = ctx.time_stage(engine::kStageDecode);
            acc.add(bench::saturated_goodput_mbps(std::move(sub), 10e6));
          }
          cols.push_back(acc.mean());
        }
        for (std::size_t n : kApCounts) {
          Rng rng(seed);
          RunningStats acc;
          for (int t = 0; t < kTrials; ++t) {
            core::ChannelMatrixSet h(0, 0);
            {
              const auto timer = ctx.time_stage(engine::kStageMeasure);
              h = core::random_channel_set_with_gains(
                  {std::vector<double>(n, from_db(snr_db))}, rng, 52, 2.0);
            }
            std::vector<cvec> row(h.n_subcarriers());
            for (std::size_t k = 0; k < row.size(); ++k) {
              row[k] = h.at(k).row(0);
            }
            rvec sub;
            {
              const auto timer = ctx.time_stage(engine::kStagePrecode);
              sub = core::diversity_subcarrier_snrs(
                  row, core::kCalibratedPhaseSigma, 1.0, rng);
            }
            const auto timer = ctx.time_stage(engine::kStageDecode);
            acc.add(bench::saturated_goodput_mbps(std::move(sub), 10e6));
          }
          cols.push_back(acc.mean());
        }
        return cols;
      });

  std::printf("%-10s %-10s", "SNR(dB)", "802.11");
  for (std::size_t n : kApCounts) std::printf(" %zu APs    ", n);
  std::printf("\n");
  for (std::size_t i = 0; i < snr_grid.size(); ++i) {
    std::printf("%-10.1f", snr_grid[i]);
    for (double v : rows[i]) std::printf(" %-9.1f", v);
    std::printf("\n");
  }
  std::printf("\npaper: a 0 dB client reaches ~21 Mb/s with 10 APs while"
              " 802.11 delivers nothing;\ncoherent MRT combining boosts SNR"
              " ~ N^2 so curves shift left as N grows.\n");
  return bench::finish(opts, runner);
}
