// Per-trial fault execution: the FaultSession that walks a FaultPlan's
// timeline and holds the state of its open windows.
//
// A FaultSession is the mutable counterpart of an immutable FaultPlan:
// one session per trial, seeded from (plan seed, trial seed), so every
// probabilistic decision (header loss coin flips, corruption draws)
// comes from a trial-scoped stream and stays byte-identical for any
// JMB_THREADS. Sessions are allocation-free after construction — the
// steady-state frame loop can pump an idle plan without touching the
// heap (enforced by tests/test_zero_alloc.cpp).
//
// Window state (AP down, sync-loss, stale-channel, backhaul windows) is
// polled through the query API at the natural hook points. Point events
// that mutate world state (oscillator phase jumps / CFO steps) come back
// from advance_to() as the span of events it began; the host, which owns
// the oscillators, applies them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/rng.h"
#include "fault/plan.h"

namespace jmb::fault {

/// Drives a plan's event timeline for one trial and answers the hook
/// points' queries. advance_to() is O(edges crossed); with no pending
/// edges it is two comparisons — cheap enough for every frame.
class FaultSession {
 public:
  /// `plan` must outlive the session. `trial_seed` decorrelates the
  /// probabilistic decisions across trials; the same (plan, trial_seed)
  /// always reproduces the same decisions.
  FaultSession(const FaultPlan& plan, std::size_t n_aps,
               std::uint64_t trial_seed);

  /// Fire every edge with time <= now and return the events whose begin
  /// edge fired in this call, in plan order (empty when none did). The
  /// span views plan().events(), so it lives as long as the plan.
  /// Monotone: time never goes backwards.
  std::span<const FaultEvent> advance_to(double now_s);

  // --- window queries ---
  [[nodiscard]] bool ap_down(std::size_t ap) const {
    return ap < aps_.size() && aps_[ap].down;
  }
  /// Did this slave's header get lost? A Bernoulli draw at the open loss
  /// window's probability; draws only while a loss window targets the AP
  /// (a fault-free run never consumes the stream).
  [[nodiscard]] bool sync_header_lost(std::size_t ap);
  /// Phase error to add to this header's channel observation: a Gaussian
  /// of the open corruption window's magnitude (std dev, radians), 0 when
  /// none targets the AP.
  [[nodiscard]] double sync_header_phase_error(std::size_t ap);
  /// While a stale-channel window is open, measurement frames re-deliver
  /// the previous H snapshot instead of fresh estimates.
  [[nodiscard]] bool stale_channel() const { return stale_depth_ > 0; }
  /// Is this downlink packet lost on the backhaul (the Ethernet
  /// distribution of the shared downlink queue, Section 9)? Draws only
  /// inside a loss window.
  [[nodiscard]] bool backhaul_packet_lost();
  /// Extra backhaul latency for a packet enqueued now (0 outside windows).
  [[nodiscard]] double backhaul_delay_s() const {
    return backhaul_delay_ ? backhaul_delay_->magnitude : 0.0;
  }

  /// Events whose begin edge has fired so far.
  [[nodiscard]] std::size_t events_applied() const { return applied_; }
  /// Begin time of the most recently activated event (-inf before any).
  [[nodiscard]] double last_fault_t() const { return last_fault_t_; }
  [[nodiscard]] const FaultPlan& plan() const { return *plan_; }
  [[nodiscard]] double now() const { return now_; }

 private:
  struct Edge {
    double t = 0.0;
    std::uint32_t event = 0;
    bool begin = true;
  };
  /// Open windows on one AP. A crash's end edge brings the AP up even
  /// while a later crash window on it is still open. Of overlapping sync
  /// windows the last activated wins, and an end edge clears its slot only
  /// if the slot still holds that event.
  struct ApWindows {
    bool down = false;
    const FaultEvent* sync_loss = nullptr;
    const FaultEvent* sync_corrupt = nullptr;
  };

  void dispatch(const Edge& e);

  const FaultPlan* plan_;
  Rng rng_;
  std::vector<Edge> edges_;  ///< sorted by (t, end-before-begin at same t)
  std::size_t next_edge_ = 0;
  double now_ = -1.0;
  std::size_t applied_ = 0;
  double last_fault_t_;

  std::vector<ApWindows> aps_;
  int stale_depth_ = 0;  ///< open stale-channel windows (they nest)
  const FaultEvent* backhaul_loss_ = nullptr;
  const FaultEvent* backhaul_delay_ = nullptr;
};

}  // namespace jmb::fault
