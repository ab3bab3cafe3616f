// Ablation — why JMB measures phase directly instead of predicting it
// from a frequency-offset estimate (Sections 1 and 5.2).
//
// Paper's numbers: a 10 Hz CFO estimation error (4e-3 ppm!) accumulates
// 0.35 rad within 5.5 ms; 100 Hz accumulates pi within 20 ms. JMB bounds
// the error to the within-packet drift by re-measuring at every packet.
#include <array>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/link_model.h"
#include "core/naive_baseline.h"
#include "engine/trial_runner.h"

int main(int argc, char** argv) {
  using namespace jmb;
  auto opts = bench::parse_options(argc, argv, "ablation_naive_cfo");
  opts.info.seed = bench::seed_from(argc, argv);
  const auto seed = opts.info.seed;
  bench::banner("Ablation: naive CFO-prediction sync vs JMB per-packet re-sync",
                seed);

  constexpr int kTrials = 4000;
  const std::vector<double> times_ms{0.5, 1.0,  2.0,  5.5,   10.0,
                                     20.0, 50.0, 100.0, 250.0};
  opts.add_param("trials_per_row", kTrials);

  // One trial per elapsed-time row; each row reseeds from the bench seed
  // exactly as the sequential sweep did, so the table is unchanged.
  engine::TrialRunner runner({.base_seed = seed});
  const auto rows =
      runner.run(times_ms.size(), [&](engine::TrialContext& ctx) {
        const double t_ms = times_ms[ctx.index];
        const auto timer = ctx.time_stage(engine::kStagePropagate);
        Rng r1(seed), r2(seed + 1), r3(seed + 2);
        RunningStats naive10, naive100, jmb;
        const core::NaiveSyncParams p10{10.0, 0.1};
        const core::NaiveSyncParams p100{100.0, 0.1};
        for (int i = 0; i < kTrials; ++i) {
          naive10.add(std::abs(core::naive_phase_error(t_ms * 1e-3, p10, r1)));
          naive100.add(
              std::abs(core::naive_phase_error(t_ms * 1e-3, p100, r2)));
          // JMB re-synced at the current packet's header; within-packet time
          // is at most ~2 ms regardless of elapsed wall time.
          const double in_packet = std::min(t_ms * 1e-3, 2e-3);
          jmb.add(
              std::abs(core::jmb_phase_error(in_packet, 5.0, 0.017, 0.1, r3)));
        }
        return std::array<double, 3>{naive10.mean(), naive100.mean(),
                                     jmb.mean()};
      });

  std::printf("%-12s %-22s %-22s %-20s\n", "elapsed", "naive |err| (10 Hz est)",
              "naive |err| (100 Hz est)", "JMB |err|");
  for (std::size_t i = 0; i < times_ms.size(); ++i) {
    std::printf("%-12.1f %-22.3f %-22.3f %-20.3f\n", times_ms[i], rows[i][0],
                rows[i][1], rows[i][2]);
  }
  std::printf("\npaper anchors: 10 Hz -> 0.35 rad at 5.5 ms; 100 Hz -> pi at"
              " 20 ms.\nJMB's error stays bounded by the packet duration"
              " forever.\n");

  // Translate to beamforming damage: SNR reduction at 20 dB, 2x2. The
  // rows share one channel-draw Rng (seed + 3), so they run sequentially
  // inside a single trial.
  const auto damage = runner.run(1, [&](engine::TrialContext& ctx) {
    const auto timer = ctx.time_stage(engine::kStagePrecode);
    std::vector<std::array<double, 2>> out;
    Rng rng(seed + 3);
    for (double t_ms : {1.0, 5.5, 20.0}) {
      Rng r1(seed + 4), r3(seed + 5);
      RunningStats nmis, jmis;
      for (int i = 0; i < 500; ++i) {
        nmis.add(
            std::abs(core::naive_phase_error(t_ms * 1e-3, {10.0, 0.1}, r1)));
        jmis.add(std::abs(core::jmb_phase_error(std::min(t_ms * 1e-3, 2e-3),
                                                5.0, 0.017, 0.1, r3)));
      }
      out.push_back({core::snr_reduction_db(2, 2, nmis.mean(), 20.0, 60, rng),
                     core::snr_reduction_db(2, 2, jmis.mean(), 20.0, 60, rng)});
    }
    return out;
  });

  std::printf("\nSNR reduction at 20 dB (2x2 ZF) if used for beamforming:\n");
  std::printf("%-12s %-14s %-14s\n", "elapsed", "naive (10 Hz)", "JMB");
  const double damage_times[] = {1.0, 5.5, 20.0};
  for (std::size_t i = 0; i < damage[0].size(); ++i) {
    std::printf("%-12.1f %-14.2f %-14.2f\n", damage_times[i], damage[0][i][0],
                damage[0][i][1]);
  }
  return bench::finish(opts, runner);
}
