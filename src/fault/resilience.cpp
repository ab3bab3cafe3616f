#include "fault/resilience.h"

#include <algorithm>

#include "obs/bounds.h"
#include "obs/flight/export.h"
#include "obs/flight/recorder.h"

namespace jmb::fault {

ResilienceController::ResilienceController(std::size_t n_aps,
                                           ResilienceParams params,
                                           const obs::ObsSink* obs)
    : params_(params), obs_(obs), state_(n_aps), active_(n_aps, 1) {}

void ResilienceController::note_fault(double t_s) {
  last_fault_t_ = t_s;
  if (!fault_pending_) {
    fault_pending_ = true;
    pending_since_ = t_s;
  }
  if (obs_) obs_->count("fault/injected");
}

void ResilienceController::quarantine(std::size_t ap, double t_s,
                                      const char* reason) {
  ApState& s = state_[ap];
  s.health = ApHealth::kQuarantined;
  s.clean_headers = 0;
  active_[ap] = 0;
  needs_remeasure_ = true;
  ++quarantines_;
  recovery_pending_ = true;
  // Quarantine is cold by design, so building the namespaced metric
  // names here costs nothing in steady state.
  const std::string reason_name = params_.metric_prefix + reason;
  if (fault_pending_) {
    fault_pending_ = false;
    last_detect_latency_s_ = t_s - pending_since_;
    if (obs_) {
      obs_->observe(params_.metric_prefix + "/time_to_detect_s",
                    obs::kLatencySBounds, last_detect_latency_s_);
    }
  } else {
    // Nothing announced the fault (e.g. a plan-less deployment); anchor
    // the recovery latency at detection time instead.
    pending_since_ = t_s;
  }
  if (obs_) {
    obs_->count(params_.metric_prefix + "/quarantines");
    obs_->count(reason_name);
  }
  // Flight-recorder crash scene: mark the quarantine on this thread's
  // timeline and snapshot the last N records of every thread.
  obs::flight::instant(std::string_view(reason_name),
                       obs::flight::kNoFlow, ap);
  obs::flight::trigger_dump("quarantine");
}

void ResilienceController::on_sync_result(std::size_t ap, bool ok,
                                          double residual_rad,
                                          double t_s) {
  // the lead judges, others are judged
  if (ap == 0 || ap >= state_.size()) return;
  ApState& s = state_[ap];
  if (!ok) {
    s.clean_headers = 0;
    s.residual_strikes = 0;
    ++s.consecutive_misses;
    if (s.health == ApHealth::kHealthy &&
        s.consecutive_misses >= kSyncMissThreshold) {
      quarantine(ap, t_s, "/quarantine_sync_loss");
    }
    if (s.health == ApHealth::kProbation) {
      s.health = ApHealth::kQuarantined;
      active_[ap] = 0;
    }
    return;
  }
  s.consecutive_misses = 0;
  const bool dirty = residual_rad > kResidualThresholdRad;
  if (dirty) {
    s.residual_strikes++;
    s.clean_headers = 0;
    if (obs_) {
      obs_->observe(params_.metric_prefix + "/residual_strike_rad",
                    obs::kPhaseRadBounds, residual_rad);
    }
    if (s.health == ApHealth::kHealthy &&
        s.residual_strikes >= kResidualStrikeThreshold) {
      quarantine(ap, t_s, "/quarantine_residual");
    }
    return;
  }
  s.residual_strikes = 0;
  ++s.clean_headers;
  if (s.health == ApHealth::kQuarantined &&
      s.clean_headers >= kProbationHeaders) {
    // Evidence is back; park in probation until a re-measurement epoch
    // restores a trustworthy reference.
    s.health = ApHealth::kProbation;
    needs_remeasure_ = true;
    if (obs_) obs_->count(params_.metric_prefix + "/probations");
  }
}

void ResilienceController::mark_down(std::size_t ap, double t_s) {
  if (ap >= state_.size()) return;
  if (state_[ap].health == ApHealth::kHealthy) {
    quarantine(ap, t_s, "/quarantine_marked_down");
  }
}

void ResilienceController::on_remeasure(double t_s) {
  (void)t_s;
  for (std::size_t a = 0; a < state_.size(); ++a) {
    if (state_[a].health == ApHealth::kProbation) {
      state_[a].health = ApHealth::kHealthy;
      state_[a].consecutive_misses = 0;
      state_[a].residual_strikes = 0;
      active_[a] = 1;
      if (obs_) obs_->count(params_.metric_prefix + "/readmissions");
    }
  }
  needs_remeasure_ = false;
}

void ResilienceController::on_recovered(double t_s) {
  if (!recovery_pending_) return;
  recovery_pending_ = false;
  ++recoveries_;
  last_recover_latency_s_ = t_s - pending_since_;
  if (obs_) {
    obs_->count(params_.metric_prefix + "/recoveries");
    obs_->observe(params_.metric_prefix + "/time_to_recover_s",
                  obs::kLatencySBounds, last_recover_latency_s_);
  }
}

bool ResilienceController::any_quarantined() const {
  return std::any_of(active_.begin(), active_.end(),
                     [](std::uint8_t a) { return a == 0; });
}

std::size_t ResilienceController::elect_lead(std::size_t preferred) const {
  if (preferred < active_.size() && active_[preferred]) return preferred;
  for (std::size_t a = 0; a < active_.size(); ++a) {
    if (active_[a]) return a;
  }
  return active_.size();
}

}  // namespace jmb::fault
