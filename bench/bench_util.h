// Shared helpers for the experiment benches: seeding, telemetry export,
// table printing, and the topology -> link-gain plumbing used by the
// throughput sweeps.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chan/topology.h"
#include "dsp/rng.h"
#include "dsp/stats.h"
#include "engine/trial_runner.h"
#include "obs/export.h"
#include "obs/flight/export.h"
#include "obs/flight/recorder.h"
#include "rate/airtime.h"
#include "rate/effective_snr.h"
#include "rate/per.h"

namespace jmb::bench {

/// Strict decimal parse: digits only, no leading whitespace or sign
/// (strtoull alone would silently wrap "-1" to 2^64-1), no trailing
/// garbage, no overflow. Returns false on any violation.
inline bool parse_u64(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

/// Parse a full decimal seed or die with a usage message naming `source`.
inline std::uint64_t parse_seed_or_die(const char* text, const char* source,
                                       const char* prog) {
  std::uint64_t v = 0;
  if (!parse_u64(text, v)) {
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
  if (!parse_u64(text, v) || v > static_cast<std::uint64_t>(SIZE_MAX)) {
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
  std::string figure;
  std::uint64_t seed = 1;
  std::string metrics_out;     ///< --metrics-out= / JMB_METRICS_OUT
  std::string trace_out;       ///< --trace-out= / JMB_TRACE_OUT
  std::string fault_plan;      ///< --fault-plan= / JMB_FAULT_PLAN
  bool timing_metrics = false; ///< --metrics-timing / JMB_METRICS_TIMING
  /// Run parameters recorded in bench_result.json (n_aps, trials, ...).
  std::vector<std::pair<std::string, double>> params;

  // Fault summary for the bench_result "faults" object; benches that
  // inject faults call set_fault_plan() + add_fault_stat(). Left untouched
  // (has_faults == false), the export is byte-identical to a fault-free
  // bench's.
  bool has_faults = false;
  std::uint64_t fault_events = 0;
  std::vector<std::pair<std::string, double>> fault_stats;

  // Metro summary for the bench_result "metro" object; the metro bench
  // calls set_metro(). Left untouched (has_metro == false), the export is
  // byte-identical to a single-system bench's.
  bool has_metro = false;
  obs::MetroSummary metro;

  // Traffic summary for the bench_result "traffic" object; overload/
  // fairness benches call set_traffic(). Left untouched
  // (has_traffic == false), the export is byte-identical to a saturated
  // bench's.
  bool has_traffic = false;
  obs::TrafficSummary traffic;

  // Precoder summary for the bench_result "precoder" object; the CSI
  // sweep bench calls set_precoder(). Left untouched
  // (has_precoder == false), the export is byte-identical to a ZF-only
  // bench's.
  bool has_precoder = false;
  obs::PrecoderSummary precoder;

  void add_param(std::string name, double value) {
    params.emplace_back(std::move(name), value);
  }
  void set_fault_plan(std::string source, std::uint64_t n_events) {
    has_faults = true;
    fault_plan = std::move(source);
    fault_events = n_events;
  }
  void add_fault_stat(std::string name, double value) {
    fault_stats.emplace_back(std::move(name), value);
  }
  void set_metro(obs::MetroSummary summary) {
    has_metro = true;
    metro = std::move(summary);
  }
  void set_traffic(obs::TrafficSummary summary) {
    has_traffic = true;
    traffic = std::move(summary);
  }
  void set_precoder(obs::PrecoderSummary summary) {
    has_precoder = true;
    precoder = std::move(summary);
  }
};

/// Strip the shared telemetry flags out of argv (compacting it in place,
/// so positional arguments like the seed keep working) and apply the
/// JMB_METRICS_OUT / JMB_TRACE_OUT / JMB_METRICS_TIMING env fallbacks.
/// Unrecognized arguments are left untouched for the caller.
inline BenchOptions parse_options(int& argc, char** argv, std::string figure) {
  BenchOptions opts;
  opts.figure = std::move(figure);
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
    obs::BenchRunInfo info;
    info.figure = opts.figure;
    info.seed = opts.seed;
    info.params = opts.params;
    info.has_faults = opts.has_faults;
    info.fault_plan = opts.fault_plan.empty() ? "builtin" : opts.fault_plan;
    info.fault_events = opts.fault_events;
    info.fault_stats = opts.fault_stats;
    info.has_metro = opts.has_metro;
    info.metro = opts.metro;
    info.has_traffic = opts.has_traffic;
    info.traffic = opts.traffic;
    info.has_precoder = opts.has_precoder;
    info.precoder = opts.precoder;
    const bool csv = opts.metrics_out.size() >= 4 &&
                     opts.metrics_out.compare(opts.metrics_out.size() - 4, 4,
                                              ".csv") == 0;
    const std::string text =
        csv ? obs::registry_csv(runner.registry(), opts.timing_metrics)
            : obs::bench_result_json(info, runner.registry(),
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
  const chan::RoomParams room;
  const chan::Topology topo = chan::sample_topology_in_band(
      n_aps, n_clients, room, rng, band.lo_db, band.hi_db);
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

/// Goodput (Mb/s) of back-to-back 1500-byte frames, each followed by a
/// 16 us SIFS-like gap, at the best rate the per-subcarrier SNRs support
/// and that rate's delivery probability; 0 if even the base rate fails.
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

/// Residual per-slave phase-error sigma used by the link-model sweeps,
/// calibrated against the sample-level Fig. 7 distribution (median 0.017,
/// 95th pct < 0.05 rad => sigma ~ 0.02).
constexpr double kCalibratedPhaseSigma = 0.02;

}  // namespace jmb::bench
