// Quickstart: two independent APs jointly beamform to two clients over a
// simulated conference-room medium — the smallest end-to-end JMB run.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "bench_util.h"
#include "engine/system.h"
#include "engine/trial_runner.h"

int main(int argc, char** argv) {
  using namespace jmb;
  auto opts = bench::parse_options(argc, argv, "quickstart");
  opts.info.seed = 7;

  // The single end-to-end run goes through the TrialRunner so the
  // pipeline's per-stage metrics land in a report at the end.
  engine::TrialRunner runner(
      {.base_seed = 7, .n_threads = 1});
  const auto results = runner.run(1, [](engine::TrialContext& ctx) {
    // 1. Describe the deployment: 2 APs, 2 clients, free-running
    //    oscillators (up to +-2 ppm at the APs), 150 us software
    //    turnaround, 10 MHz channel at 2.4 GHz — the paper's USRP2
    //    testbed in miniature.
    core::SystemParams params;
    params.n_aps = 2;
    params.n_clients = 2;
    params.seed = ctx.seed;

    // Links at ~25 dB SNR (a small room).
    const double gain = core::JmbSystem::gain_for_snr_db(25.0, 1.0);
    core::JmbSystem system(params, {{gain, gain}, {gain, gain}});
    system.attach_obs(&ctx.sink);

    // 2. Channel-measurement phase: the lead AP sends a sync header, all
    //    APs interleave measurement symbols, clients report the channel
    //    snapshot, slaves capture their lead reference (Section 5.1).
    if (!system.run_measurement()) {
      std::printf("measurement failed (no preamble detected?)\n");
      return core::JointResult{};
    }
    std::printf("measurement ok; predicted post-beamforming SNR: %.1f dB\n",
                system.predicted_beamforming_snr_db());

    // 3. Time passes; oscillators drift apart. With CFO prediction this
    //    would be fatal; JMB re-syncs at the next packet's header.
    system.advance_time(50e-3);

    // 4. Joint transmission: one packet per client, concurrently, on the
    //    same channel.
    phy::ByteVec pkt_a(500, 0xAA), pkt_b(500, 0xBB);
    return system.transmit_joint(
        {pkt_a, pkt_b}, {phy::Modulation::kQam16, phy::CodeRate::kHalf});
  });

  const core::JointResult& result = results[0];
  if (result.per_client.empty()) return 1;
  std::printf("slaves synced: %zu\n", result.slaves_synced);
  for (std::size_t c = 0; c < result.per_client.size(); ++c) {
    const phy::RxResult& rx = result.per_client[c];
    if (rx.ok) {
      std::printf("client %zu: decoded %zu bytes (first byte 0x%02X), "
                  "EVM-SNR %.1f dB\n",
                  c, rx.psdu.size(), rx.psdu.empty() ? 0 : rx.psdu[0],
                  rx.evm_snr_db);
    } else {
      std::printf("client %zu: FAILED (%s)\n", c, rx.fail_reason.c_str());
    }
  }
  std::printf("\nBoth clients received distinct packets at the same time on"
              " the same channel:\nthat is joint multi-user beamforming from"
              " unsynchronized APs.\n");
  return bench::finish(opts, runner);
}
