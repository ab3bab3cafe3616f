// ResilienceController — sync-loss detection, AP quarantine and recovery
// bookkeeping.
//
// The controller consumes exactly the signals a real deployment has at
// the lead: did each slave answer the last sync header, how far its
// header-to-header phase walk strayed from the averaged-CFO prediction
// (the phase-sync residual of Fig. 7), and how large the CFO innovation
// was. From those it runs a per-AP health state machine:
//
//        healthy --misses/residual strikes--> quarantined
//        quarantined --evidence returns--> probation --re-measure--> healthy
//
// Quarantined APs sit out of joint transmissions (the precoder is
// re-derived from the reduced H; see Precoder::build_masked), and the
// controller raises a re-measurement request so the surviving set
// re-anchors its references. Detection and recovery latencies are
// published into the metric registry (resilience/time_to_detect_s,
// resilience/time_to_recover_s) via the optional ObsSink.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/sink.h"

namespace jmb::fault {

/// Consecutive missed sync headers before an AP is quarantined.
inline constexpr std::size_t kSyncMissThreshold = 3;
/// Phase-sync residual (radians) counted as a strike against the AP.
inline constexpr double kResidualThresholdRad = 0.5;
/// Consecutive above-threshold residuals before quarantine.
inline constexpr std::size_t kResidualStrikeThreshold = 3;
/// Consecutive clean sync headers a probation AP must produce before it
/// rejoins joint transmissions.
inline constexpr std::size_t kProbationHeaders = 2;

struct ResilienceParams {
  /// Metric namespace for everything the controller publishes. Per-cluster
  /// controllers (metro sharding) pass e.g. "cell3/resilience" so the
  /// merged aggregate registry keeps clusters apart; the default keeps
  /// every legacy metric name byte-identical.
  std::string metric_prefix = "resilience";
};

enum class ApHealth : std::uint8_t {
  kHealthy = 0,
  kQuarantined = 1,
  kProbation = 2,
};

class ResilienceController {
 public:
  /// AP 0 is the lead; it is never quarantined by sync evidence (it is
  /// the node *collecting* the evidence) but can be reported dead by the
  /// MAC, which then re-elects (see elect_lead).
  ResilienceController(std::size_t n_aps, ResilienceParams params = {},
                       const obs::ObsSink* obs = nullptr);

  void attach_obs(const obs::ObsSink* obs) { obs_ = obs; }

  /// Note an injected disruption at time t (drives the time-to-detect /
  /// time-to-recover histograms; harmless to omit).
  void note_fault(double t_s);

  /// Feed one sync-header outcome for AP `ap` at time `t_s`. `ok` means
  /// the header round-trip produced a usable correction;
  /// `residual_rad` / `cfo_innovation_hz` carry the phase-sync telemetry
  /// when ok (pass 0 when unavailable).
  void on_sync_result(std::size_t ap, bool ok, double residual_rad,
                      double cfo_innovation_hz, double t_s);

  /// The MAC observed AP `ap` hard-down (e.g. backhaul heartbeat loss).
  void mark_down(std::size_t ap, double t_s);

  /// A re-measurement epoch completed at t_s: probation APs rejoin with
  /// fresh references. Quarantined APs stay out until kProbationHeaders
  /// clean headers move them to probation.
  void on_remeasure(double t_s);

  /// First fully-successful joint transmission after a quarantine; stamps
  /// time-to-recover. Idempotent until the next quarantine.
  void on_recovered(double t_s);

  [[nodiscard]] ApHealth health(std::size_t ap) const {
    return state_[ap].health;
  }
  [[nodiscard]] bool quarantined(std::size_t ap) const {
    return state_[ap].health != ApHealth::kHealthy;
  }
  /// 1 for each AP currently participating in joint transmissions.
  [[nodiscard]] const std::vector<std::uint8_t>& active() const {
    return active_;
  }
  [[nodiscard]] bool any_quarantined() const;

  /// A quarantine (or probation readmission) happened since the last
  /// on_remeasure(): the surviving set should re-measure.
  [[nodiscard]] bool needs_remeasure() const { return needs_remeasure_; }

  /// Lead election: the `preferred` AP when it participates, else the
  /// lowest-indexed active AP (n_aps when none survive).
  [[nodiscard]] std::size_t elect_lead(std::size_t preferred) const;

  [[nodiscard]] std::size_t quarantine_events() const { return quarantines_; }
  [[nodiscard]] std::size_t recoveries() const { return recoveries_; }
  [[nodiscard]] double last_detect_latency_s() const {
    return last_detect_latency_s_;
  }
  [[nodiscard]] double last_recover_latency_s() const {
    return last_recover_latency_s_;
  }

 private:
  struct ApState {
    ApHealth health = ApHealth::kHealthy;
    std::size_t consecutive_misses = 0;
    std::size_t residual_strikes = 0;
    std::size_t clean_headers = 0;
  };

  void quarantine(std::size_t ap, double t_s, const char* reason);

  ResilienceParams params_;
  const obs::ObsSink* obs_;
  std::vector<ApState> state_;
  std::vector<std::uint8_t> active_;
  bool needs_remeasure_ = false;

  double last_fault_t_ = 0.0;
  bool fault_pending_ = false;    ///< a fault awaits detection
  bool recovery_pending_ = false; ///< a quarantine awaits recovery
  double pending_since_ = 0.0;    ///< fault time backing both latencies

  std::size_t quarantines_ = 0;
  std::size_t recoveries_ = 0;
  double last_detect_latency_s_ = 0.0;
  double last_recover_latency_s_ = 0.0;
};

}  // namespace jmb::fault
