// Conference room: the paper's motivating scenario. A room full of
// clients, APs on the ledges, one shared channel. Shows how total goodput
// scales as the operator adds APs, using the link-level fast path plus the
// full MAC simulation (shared queue, lead election, measurement epochs,
// retransmissions).
//
// Each AP count is one TrialRunner trial with its own deterministic RNG
// stream, so rows compute in parallel yet print identically for any
// JMB_THREADS.
//
//   ./build/examples/conference_room [n_max] [seed]
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "bench_util.h"
#include "chan/topology.h"
#include "core/link_model.h"
#include "dsp/rng.h"
#include "engine/trial_runner.h"
#include "net/mac.h"

int main(int argc, char** argv) {
  using namespace jmb;
  auto opts = bench::parse_options(argc, argv, "conference_room");
  const std::size_t n_max =
      argc > 1 ? bench::parse_count_or_die(argv[1], "client count", argv[0])
               : 8;
  const std::uint64_t seed =
      argc > 2 ? bench::parse_seed_or_die(argv[2], "argv[2]", argv[0]) : 42;
  opts.info.seed = seed;
  opts.add_param("n_max", static_cast<double>(n_max));

  std::printf("Conference room, one 10 MHz channel, saturated downlink.\n");
  std::printf("(seed %llu, %zu thread(s))\n\n",
              static_cast<unsigned long long>(seed),
              engine::default_thread_count());

  engine::TrialRunner runner({.base_seed = seed});
  const auto rows = runner.run(n_max, [&](engine::TrialContext& ctx) {
    const std::size_t n = ctx.index + 1;
    Rng& rng = ctx.rng;
    const chan::RoomParams room;
    // Place n APs and n clients; require decent coverage (12-24 dB).
    std::vector<std::vector<double>> gains(n, std::vector<double>(n));
    core::ChannelMatrixSet h_base(0, 0);
    {
      const auto timer = ctx.time_stage(engine::kStageMeasure);
      const chan::Topology topo =
          chan::sample_topology_in_band(n, n, room, rng, 12.0, 24.0);
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t a = 0; a < n; ++a) {
          gains[c][a] = from_db(topo.links[c][a].snr_db);
        }
      }
      h_base = core::random_channel_set_with_gains(gains, rng, 52, 4.0);
    }
    const auto base_snrs = core::baseline_subcarrier_snrs(h_base, 1.0);

    net::MacParams mac;
    mac.duration_s = 0.25;
    mac.airtime.turnaround_s = 16e-6;
    mac.seed = rng.next_u64();
    net::MacReport base;
    {
      const auto timer = ctx.time_stage(engine::kStageDecode);
      base = net::run_baseline_mac(
          n, [&](std::size_t c) { return net::LinkState{base_snrs[c]}; }, mac);
    }

    double jmb_total = 0.0;
    if (n >= 2) {
      std::optional<core::Precoder> precoder;
      core::ChannelMatrixSet h(0, 0);
      {
        const auto timer = ctx.time_stage(engine::kStagePrecode);
        h = core::well_conditioned_channel_set(gains, rng);
        precoder = core::Precoder::build(h, 1.0, &ctx.sink);
      }
      if (!precoder) {
        return std::pair<double, double>{base.total_goodput_mbps, 0.0};
      }
      Rng err_rng(rng.next_u64());
      std::optional<core::SinrPool> pool;
      {
        const auto timer = ctx.time_stage(engine::kStagePropagate);
        pool.emplace(h, *precoder, 16, err_rng);
      }
      mac.seed = rng.next_u64();
      const auto timer = ctx.time_stage(engine::kStageDecode);
      const net::MacReport jmb = net::run_jmb_mac(
          n, n, n,
          [&](std::size_t c) { return net::LinkState{pool->next(c)}; }, mac);
      jmb_total = jmb.total_goodput_mbps;
    } else {
      jmb_total = base.total_goodput_mbps;  // one AP: nothing to join
    }
    return std::pair<double, double>{base.total_goodput_mbps, jmb_total};
  });

  std::printf("%-8s %-18s %-18s %-8s\n", "APs", "802.11 total", "JMB total",
              "gain");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [base_total, jmb_total] = rows[i];
    if (jmb_total == 0.0 && i > 0) continue;  // singular precoder draw
    std::printf("%-8zu %-18.1f %-18.1f %-8.2f\n", i + 1, base_total, jmb_total,
                base_total > 0 ? jmb_total / base_total : 0.0);
  }
  std::printf("\n802.11 saturates at one AP's worth of air; JMB keeps"
              " climbing as APs are added.\n");
  return bench::finish(opts, runner);
}
