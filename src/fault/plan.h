// Declarative fault schedules — the "what goes wrong, and when" half of
// the resilience subsystem.
//
// A FaultPlan is an immutable, sorted list of impairment events (AP
// crashes, sync-header loss, oscillator glitches, stale channel state,
// backhaul trouble) plus a seed for the plan's random decisions. Plans
// are pure data: they carry no simulation state, so one plan can be
// shared by every trial of a TrialRunner fan-out. Each trial instantiates
// its own FaultSession (fault/injector.h) whose RNG stream is derived
// from (plan seed, trial seed), keeping runs byte-identical for any
// JMB_THREADS.
//
// Plans load from JSON (--fault-plan=FILE.json; schema id
// "jmb.fault_plan.v1") or are built programmatically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace jmb::obs {
class JsonValue;
}  // namespace jmb::obs

namespace jmb::fault {

/// Every impairment the subsystem can inject. Window kinds stay active
/// for `duration_s`; point kinds fire once at `t_s`.
enum class FaultKind {
  kApCrash,        ///< AP off the air from t for duration (forever if 0)
  kApRestart,      ///< point: bring a crashed AP back up
  /// window: slave loses the lead's sync header w.p. `probability`
  kSyncLoss,
  kSyncCorrupt,    ///< window: header phase corrupted by N(0, magnitude) rad
  kPhaseJump,      ///< point: oscillator phase jumps by `magnitude` rad
  kCfoStep,        ///< point: oscillator drift rate steps by `magnitude` Hz
  kStaleChannel,   ///< window: measurements return the previous H snapshot
  kBackhaulLoss,   ///< window: downlink packets lost w.p. `probability`
  kBackhaulDelay,  ///< window: downlink packets delayed by `magnitude` s
};

/// The kind named `name` in a plan file; returns false when `name` matches
/// no kind.
[[nodiscard]] bool fault_kind_from_name(std::string_view name, FaultKind& out);
/// True for kinds whose effect spans [t_s, t_s + duration_s].
[[nodiscard]] bool fault_kind_is_window(FaultKind k);

struct FaultEvent {
  FaultKind kind = FaultKind::kApCrash;
  double t_s = 0.0;         ///< activation time (simulation seconds)
  std::size_t ap = 0;       ///< target AP (ignored by backhaul/stale kinds)
  double duration_s = 0.0;  ///< window length; 0 = open-ended / point event
  double magnitude = 0.0;   ///< radians, Hz or seconds, per kind
  double probability = 1.0; ///< per-decision Bernoulli rate for loss kinds

  /// Window end (infinity for open-ended windows and point events never
  /// deactivate on their own).
  [[nodiscard]] double end_s() const;
};

/// An immutable, time-sorted fault schedule.
class FaultPlan {
 public:
  FaultPlan() = default;
  /// Events are sorted by (t_s, insertion order) on construction.
  FaultPlan(std::vector<FaultEvent> events, std::uint64_t seed);

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Parse from a jmb.fault_plan.v1 JSON document. Returns an empty plan
  /// and an `error` message on malformed input.
  [[nodiscard]] static FaultPlan from_json(const obs::JsonValue& doc,
                                           std::string* error = nullptr);
  /// Load and parse `path`; empty plan + `error` on IO/parse failure.
  [[nodiscard]] static FaultPlan load(const std::string& path,
                                      std::string* error = nullptr);

  /// Serialize back to jmb.fault_plan.v1 JSON (round-trips with
  /// from_json; event order is the sorted order).
  [[nodiscard]] std::string to_json() const;

  // --- programmatic builders ---

  /// Kill `ap` at `t_s`; it stays down for `outage_s` (0 = forever).
  [[nodiscard]] static FaultPlan single_crash(std::size_t ap, double t_s,
                                              double outage_s = 0.0,
                                              std::uint64_t seed = 1);

  /// Deterministic pseudo-Poisson crash/restart churn: exponential
  /// inter-arrival gaps at `rate_hz`, each crash picking an AP uniformly
  /// from [0, n_aps) and lasting `outage_s`. Fully determined by `seed`.
  [[nodiscard]] static FaultPlan random_crashes(double rate_hz,
                                                double duration_s,
                                                std::size_t n_aps,
                                                double outage_s,
                                                std::uint64_t seed);

 private:
  std::vector<FaultEvent> events_;
  std::uint64_t seed_ = 1;
};

}  // namespace jmb::fault
