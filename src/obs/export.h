// Exporters: registry -> bench_result.json / CSV, plus the minimal
// JSON-Schema validator backing the `metrics_export_smoke` ctest target.
//
// bench_result.json (schema id "jmb.bench_result.v1") is the
// machine-readable artifact every bench emits via --metrics-out; future
// PRs diff these files to track physics and perf trajectories. Exports
// include only kPhysics metrics unless `include_timing` is set, so a
// default export is byte-identical for any JMB_THREADS.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/registry.h"

namespace jmb::obs {

/// Metro-sharding run summary for the bench_result "metro" object. Plain
/// data so the exporter stays independent of the metro layer; the metro
/// bench fills it from a metro::MetroResult.
struct MetroSummary {
  std::uint64_t cells = 0;
  std::uint64_t users_per_cell = 0;
  double churn_rate_hz = 0.0;
  double aggregate_goodput_mbps = 0.0;
  double p99_frame_latency_s = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t handoffs = 0;  ///< accepted hand-offs (grid-wide)
  std::uint64_t blocked_handoffs = 0;
  std::uint64_t lead_elections = 0;
  std::uint64_t quarantines = 0;
  std::vector<double> per_cell_goodput_mbps;
};

/// Traffic-mode run summary for the bench_result "traffic" object: the
/// headline overload/fairness numbers for one (load, policy) configuration.
/// Plain data so the exporter stays independent of src/traffic/.
struct TrafficSummary {
  std::string profile;        ///< workload mix name ("web", "mixed", ...)
  std::string policy;         ///< scheduling policy name ("pf", "edf", ...)
  double offered_load = 0.0;  ///< offered / nominal-capacity ratio
  std::uint64_t users = 0;
  std::uint64_t flows = 0;            ///< distinct (client, flow) pairs
  std::uint64_t offered_packets = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t aggregated_mpdus = 0;  ///< packets that rode an A-MPDU
  double jain_fairness = 0.0;          ///< over per-flow goodput, (0, 1]
  double goodput_mbps = 0.0;
  double p50_latency_s = 0.0;
  double p99_latency_s = 0.0;
};

/// Precoder-zoo run summary for the bench_result "precoder" object: the
/// headline CSI-robustness comparison at one impairment point. Plain data
/// so the exporter stays independent of core/precoder.h.
struct PrecoderSummary {
  std::string headline_kind;  ///< best goodput at the headline CSI point
  double staleness = 0.0;     ///< headline point: CSI age, coherence intervals
  std::uint64_t feedback_bits = 0;  ///< headline point: bits/component, 0=full
  double zf_goodput_mbps = 0.0;
  double rzf_goodput_mbps = 0.0;
  double conj_goodput_mbps = 0.0;
  /// rzf over zf goodput at the headline point — the MMSE robustness win.
  double rzf_over_zf = 0.0;
  double mean_condition = 0.0;  ///< mean channel 2-norm condition, all trials
};

struct BenchRunInfo {
  std::string figure;  ///< e.g. "fig09_throughput_scaling"
  std::uint64_t seed = 0;
  /// Free-form run parameters (n_ap, trials, snr_db, ...).
  std::vector<std::pair<std::string, double>> params;

  // --- fault-injection summary (resilience benches only) ---
  /// When set, a "faults" object is emitted. Runs without fault injection
  /// leave this false so their artifacts stay byte-identical to pre-fault
  /// exports.
  bool has_faults = false;
  std::string fault_plan;         ///< plan source: file path or builder name
  std::uint64_t fault_events = 0; ///< plan events scheduled per trial
  /// Aggregated recovery stats (quarantines, mean_time_to_detect_s, ...).
  std::vector<std::pair<std::string, double>> fault_stats;

  // --- metro-sharding summary (metro benches only) ---
  /// When set, a "metro" object is emitted (cell grid shape, churn and
  /// hand-off totals, aggregate goodput, p99 frame latency). Single-system
  /// runs leave this false so their artifacts stay byte-identical to
  /// pre-metro exports.
  bool has_metro = false;
  MetroSummary metro;

  // --- traffic-mode summary (overload/fairness benches only) ---
  /// When set, a "traffic" object is emitted (workload mix, scheduling
  /// policy, fairness and tail-latency headline numbers). Saturated runs
  /// leave this false so their artifacts stay byte-identical to
  /// pre-traffic exports.
  bool has_traffic = false;
  TrafficSummary traffic;

  // --- precoder-zoo summary (CSI-robustness benches only) ---
  /// When set, a "precoder" object is emitted (headline CSI point, per-kind
  /// goodput, rzf/zf robustness ratio). ZF-only runs leave this false so
  /// their artifacts stay byte-identical to pre-zoo exports.
  bool has_precoder = false;
  PrecoderSummary precoder;
};

/// Build the bench_result.v1 document for a merged registry.
JsonValue bench_result_doc(const BenchRunInfo& info, const MetricRegistry& reg,
                           bool include_timing = false);

/// Serialized bench_result.v1 JSON, newline-terminated.
std::string bench_result_json(const BenchRunInfo& info,
                              const MetricRegistry& reg,
                              bool include_timing = false);

/// CSV rows: name,kind,class,count,sum,min,max,mean,p50,p90,p99
/// (count/quantiles empty for counters and gauges).
std::string registry_csv(const MetricRegistry& reg,
                         bool include_timing = false);

/// Validate `doc` against a simplified JSON Schema supporting: type,
/// required, properties, items, const, enum, minItems, minimum, maximum.
/// Returns a list of human-readable errors, empty when the document
/// conforms.
std::vector<std::string> validate_schema(const JsonValue& schema,
                                         const JsonValue& doc);

/// Write `text` to `path`; returns false (and perror-style stderr note)
/// on failure.
bool write_text_file(const std::string& path, const std::string& text);

}  // namespace jmb::obs
