// Shared helpers for the experiment benches: seeding, telemetry export,
// table printing, and the topology -> link-gain plumbing used by the
// throughput sweeps.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chan/topology.h"
#include "core/link_model.h"
#include "dsp/rng.h"
#include "dsp/stats.h"
#include "engine/env.h"
#include "engine/trial_runner.h"
#include "linalg/pinv.h"
#include "net/mac.h"
#include "obs/bounds.h"
#include "obs/export.h"
#include "obs/flight/export.h"
#include "obs/flight/recorder.h"
#include "rate/airtime.h"
#include "rate/effective_snr.h"
#include "rate/per.h"

namespace jmb::bench {

/// Parse a full decimal seed or die with a usage message naming `source`.
inline std::uint64_t parse_seed_or_die(const char* text, const char* source,
                                       const char* prog) {
  std::uint64_t v = 0;
  if (!engine::parse_u64_strict(text, v)) {
    std::fprintf(stderr,
                 "%s: invalid seed '%s' (from %s); expected a decimal "
                 "integer\nusage: %s [seed]   (or set JMB_SEED)\n",
                 prog, text == nullptr ? "" : text, source, prog);
    std::exit(2);
  }
  return v;
}

/// Parse a decimal count argument (client counts, trial counts, ...) or
/// die with the same strictness as parse_seed_or_die.
inline std::size_t parse_count_or_die(const char* text, const char* what,
                                      const char* prog) {
  std::uint64_t v = 0;
  if (!engine::parse_u64_strict(text, v) ||
      v > static_cast<std::uint64_t>(SIZE_MAX)) {
    std::fprintf(stderr,
                 "%s: invalid %s '%s'; expected a decimal integer\n", prog,
                 what, text == nullptr ? "" : text);
    std::exit(2);
  }
  return static_cast<std::size_t>(v);
}

/// Seed from argv[1] or JMB_SEED, defaulting to 1. Every bench prints it.
/// Non-numeric input is rejected with a usage message (exit 2) rather than
/// silently seeding 0.
inline std::uint64_t seed_from(int argc, char** argv) {
  const char* prog = argc > 0 ? argv[0] : "bench";
  if (argc > 1) return parse_seed_or_die(argv[1], "argv[1]", prog);
  if (const char* env = std::getenv("JMB_SEED")) {
    return parse_seed_or_die(env, "JMB_SEED", prog);
  }
  return 1;
}

/// Telemetry options every bench and example shares. Obtained from
/// parse_options(); pass to finish() after the run to emit the report,
/// the bench_result.json/.csv export, and the Chrome trace. Since the
/// flight recorder (obs/flight/) became the span backend, --trace-out
/// needs no per-bench wiring: finish() drains the process-wide rings.
struct BenchOptions {
  std::string metrics_out;     ///< --metrics-out= / JMB_METRICS_OUT
  std::string trace_out;       ///< --trace-out= / JMB_TRACE_OUT
  std::string fault_plan;      ///< --fault-plan= / JMB_FAULT_PLAN
  bool timing_metrics = false; ///< --metrics-timing / JMB_METRICS_TIMING
  /// The bench_result.json run header (figure, seed, params) and the
  /// optional summary objects. A summary left unset keeps the export
  /// byte-identical to a bench without that subsystem.
  obs::BenchRunInfo info;

  /// Run parameters recorded in bench_result.json (n_aps, trials, ...).
  void add_param(std::string name, double value) {
    info.params.emplace_back(std::move(name), value);
  }
  /// Fault summary: the plan's source and its events per trial.
  void set_fault_plan(std::string source, std::uint64_t n_events) {
    info.has_faults = true;
    info.fault_plan = std::move(source);
    info.fault_events = n_events;
  }
  void add_fault_stat(std::string name, double value) {
    info.fault_stats.emplace_back(std::move(name), value);
  }
  void set_metro(obs::MetroSummary summary) {
    info.has_metro = true;
    info.metro = std::move(summary);
  }
  void set_traffic(obs::TrafficSummary summary) {
    info.has_traffic = true;
    info.traffic = std::move(summary);
  }
  void set_precoder(obs::PrecoderSummary summary) {
    info.has_precoder = true;
    info.precoder = std::move(summary);
  }
};

/// Strip the shared telemetry flags out of argv (compacting it in place,
/// so positional arguments like the seed keep working) and apply the
/// JMB_METRICS_OUT / JMB_TRACE_OUT / JMB_METRICS_TIMING env fallbacks.
/// Unrecognized arguments are left untouched for the caller.
inline BenchOptions parse_options(int& argc, char** argv, std::string figure) {
  BenchOptions opts;
  opts.info.figure = std::move(figure);
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--metrics-out=", 0) == 0) {
      opts.metrics_out = arg.substr(std::strlen("--metrics-out="));
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      opts.trace_out = arg.substr(std::strlen("--trace-out="));
    } else if (arg.rfind("--fault-plan=", 0) == 0) {
      opts.fault_plan = arg.substr(std::strlen("--fault-plan="));
    } else if (arg == "--metrics-timing") {
      opts.timing_metrics = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  const auto env_or = [](const char* name, const std::string& cur) {
    if (!cur.empty()) return cur;
    const char* env = std::getenv(name);
    return env ? std::string(env) : std::string();
  };
  opts.metrics_out = env_or("JMB_METRICS_OUT", opts.metrics_out);
  opts.trace_out = env_or("JMB_TRACE_OUT", opts.trace_out);
  opts.fault_plan = env_or("JMB_FAULT_PLAN", opts.fault_plan);
  if (const char* env = std::getenv("JMB_METRICS_TIMING")) {
    if (*env != '\0' && std::string_view(env) != "0") {
      opts.timing_metrics = true;
    }
  }
  return opts;
}

/// End-of-run tail every bench shares: the stderr stage report, then the
/// requested exports. Returns the process exit code.
inline int finish(const BenchOptions& opts, const engine::TrialRunner& runner) {
  runner.print_report();
  bool ok = true;
  if (!opts.metrics_out.empty()) {
    const bool csv = opts.metrics_out.size() >= 4 &&
                     opts.metrics_out.compare(opts.metrics_out.size() - 4, 4,
                                              ".csv") == 0;
    const std::string text =
        csv ? obs::registry_csv(runner.registry(), opts.timing_metrics)
            : obs::bench_result_json(opts.info, runner.registry(),
                                     opts.timing_metrics);
    ok = obs::write_text_file(opts.metrics_out, text) && ok;
  }
  if (!opts.trace_out.empty()) {
    if (!obs::flight::FlightRecorder::instance().enabled()) {
      std::fprintf(stderr,
                   "warning: --trace-out requested but JMB_FLIGHT=0; the "
                   "trace will be empty\n");
    }
    ok = obs::flight::write_chrome_trace_file(opts.trace_out) && ok;
  }
  return ok ? 0 : 1;
}

inline void banner(const std::string& title, std::uint64_t seed) {
  std::printf(
      "==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("seed = %llu   threads = %zu\n",
              static_cast<unsigned long long>(seed),
              engine::default_thread_count());
  std::printf(
      "==============================================================\n");
}

/// The paper's three effective-SNR bands (Section 11).
struct SnrBand {
  const char* name;
  double lo_db;
  double hi_db;
};

inline const std::vector<SnrBand>& snr_bands() {
  static const std::vector<SnrBand> kBands{
      {"high   (>18 dB)", 18.0, 28.0},
      {"medium (12-18 dB)", 12.0, 18.0},
      {"low    (6-12 dB)", 6.0, 12.0},
  };
  return kBands;
}

/// Sample a conference-room topology whose best-AP SNRs land in a band and
/// return per-(client, ap) linear gains relative to a unit noise floor.
inline std::vector<std::vector<double>> band_link_gains(std::size_t n_aps,
                                                        std::size_t n_clients,
                                                        const SnrBand& band,
                                                        Rng& rng) {
  const chan::Topology topo = chan::sample_topology_in_band(
      n_aps, n_clients, rng, band.lo_db, band.hi_db);
  std::vector<std::vector<double>> gains(n_clients,
                                         std::vector<double>(n_aps, 0.0));
  for (std::size_t c = 0; c < n_clients; ++c) {
    for (std::size_t a = 0; a < n_aps; ++a) {
      gains[c][a] = from_db(topo.links[c][a].snr_db);
    }
  }
  return gains;
}

/// Dense-deployment link gains for a band; the model itself now lives in
/// chan::diverse_link_gains (the metro layer samples per-cell gains with
/// the same RNG call sequence), this wrapper just adapts the SnrBand.
inline std::vector<std::vector<double>> diverse_link_gains(
    std::size_t n_aps, std::size_t n_clients, const SnrBand& band, Rng& rng) {
  return chan::diverse_link_gains(n_aps, n_clients, band.lo_db, band.hi_db,
                                  rng);
}

/// The two MAC runs of one throughput-scaling topology.
struct ScalingRun {
  net::MacReport base;  ///< 802.11: one AP at a time, each client at its best
  net::MacReport jmb;   ///< JMB joint transmissions
};

/// One Fig. 9/10 topology: n APs and n clients in `band`, a well-
/// conditioned joint channel, then 802.11 and JMB MAC runs of 0.1 s with
/// a 16 us SIFS-like turnaround (the paper's 150 us USRP software
/// turnaround is a software-radio artifact; EXPERIMENTS.md gives the
/// gain's sensitivity to it). JMB prices each joint transmission from a
/// 16-entry SinrPool. Observes both total goodputs. Returns nullopt, and
/// skips the MAC runs, when the precoder cannot be built. With kZf the
/// weights are bitwise Precoder::build's.
inline std::optional<ScalingRun> run_scaling_topology(
    std::size_t n, const SnrBand& band, phy::PrecoderKind kind, Rng& rng,
    engine::TrialContext& ctx) {
  std::vector<std::vector<double>> gains;
  core::ChannelMatrixSet h(0, 0);
  {
    const auto timer = ctx.time_stage(engine::kStageMeasure);
    gains = diverse_link_gains(n, n, band, rng);
    h = core::well_conditioned_channel_set(gains, rng);
  }
  std::optional<core::Precoder> precoder;
  {
    const auto timer = ctx.time_stage(engine::kStagePrecode);
    core::PrecoderConfig cfg;
    cfg.kind = kind;
    if (kind == phy::PrecoderKind::kRzf) {
      cfg.ridge = core::PrecoderConfig::mmse_ridge(n, 1.0);
    }
    precoder = core::Precoder::build_kind(h, cfg, &ctx.sink);
    if (precoder) {
      engine::add_condition(&ctx.sink, engine::kStagePrecode,
                            condition_number(h.at(0)));
    }
  }
  if (!precoder) return std::nullopt;

  net::MacParams mac;
  mac.duration_s = 0.1;
  mac.airtime.turnaround_s = 16e-6;
  const auto best_ap = [&](std::size_t c) {
    return net::LinkState{core::best_ap_snrs(gains[c])};
  };
  ScalingRun run;
  mac.seed = rng.next_u64();
  {
    const auto timer = ctx.time_stage(engine::kStageDecode);
    run.base = net::run_baseline_mac(n, best_ap, mac);
  }
  Rng err_rng(rng.next_u64());
  std::optional<core::SinrPool> pool;
  {
    const auto timer = ctx.time_stage(engine::kStagePropagate);
    pool.emplace(h, *precoder, 16, err_rng);
  }
  const auto pooled = [&](std::size_t c) {
    return net::LinkState{pool->next(c)};
  };
  mac.seed = rng.next_u64();
  {
    const auto timer = ctx.time_stage(engine::kStageDecode);
    run.jmb = net::run_jmb_mac(n, n, n, pooled, mac);
  }
  ctx.sink.observe("scaling/base_goodput_mbps", obs::kMbpsBounds,
                   run.base.total_goodput_mbps);
  ctx.sink.observe("scaling/jmb_goodput_mbps", obs::kMbpsBounds,
                   run.jmb.total_goodput_mbps);
  return run;
}

/// 802.11n channel width: the 802.11n benches price each spatial stream
/// as one 20 MHz stream (the sample-level testbed runs phy::kSampleRateHz).
inline constexpr double kHtSampleRateHz = 20e6;

/// Goodput (Mb/s) of back-to-back 1500-byte frames, each followed by a
/// 16 us SIFS-like gap, at the best rate the per-subcarrier SNRs support
/// and that rate's delivery probability; 0 if even the base rate fails.
/// `sample_rate_hz` is phy::kSampleRateHz or kHtSampleRateHz.
inline double saturated_goodput_mbps(rvec subcarrier_snr,
                                     double sample_rate_hz) {
  rate::EffectiveSnrs link(std::move(subcarrier_snr));
  const auto ri = rate::select_rate(link);
  if (!ri) return 0.0;
  const phy::Mcs& mcs = phy::rate_set()[*ri];
  const double airtime =
      rate::frame_airtime_s(1500, mcs, sample_rate_hz) + 16e-6;
  const double per = rate::frame_error_prob(link, *ri, 1500);
  return 1500.0 * 8.0 * (1.0 - per) / airtime / 1e6;
}

}  // namespace jmb::bench
