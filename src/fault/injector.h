// Per-trial fault execution: the Injector interface, its concrete
// implementations, and the FaultSession that drives them along a
// FaultPlan's timeline.
//
// A FaultSession is the mutable counterpart of an immutable FaultPlan:
// one session per trial, seeded from (plan seed, trial seed), so every
// probabilistic decision (header loss coin flips, corruption draws)
// comes from a trial-scoped stream and stays byte-identical for any
// JMB_THREADS. Sessions are allocation-free after construction — the
// steady-state frame loop can pump an idle plan without touching the
// heap (enforced by tests/test_zero_alloc.cpp).
//
// Hosts (the sample-level engine, the MAC simulations) implement
// FaultHost to receive point events that mutate world state (oscillator
// phase jumps / CFO steps, crash and restart edges); window state
// (AP down, sync-loss, stale-channel, backhaul windows) is polled
// through the session's query API at the natural hook points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsp/rng.h"
#include "fault/plan.h"

namespace jmb::fault {

/// Receives point events when the session's clock passes them. Default
/// implementations ignore everything, so hosts override only what they
/// model.
class FaultHost {
 public:
  virtual ~FaultHost() = default;
  virtual void on_ap_crash(std::size_t ap) { (void)ap; }
  virtual void on_ap_restart(std::size_t ap) { (void)ap; }
  virtual void on_phase_jump(std::size_t ap, double rad) {
    (void)ap;
    (void)rad;
  }
  virtual void on_cfo_step(std::size_t ap, double hz) {
    (void)ap;
    (void)hz;
  }
};

/// One family of impairments. Injectors own the active-window state for
/// their kinds; the session routes plan events to them as simulated time
/// advances past event begin/end edges.
class Injector {
 public:
  virtual ~Injector() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual bool handles(FaultKind kind) const = 0;
  /// An event of a handled kind crossed its begin (`begin = true`) or
  /// window-end edge.
  virtual void on_edge(const FaultEvent& ev, bool begin, FaultHost& host) = 0;
};

/// AP crash / restart windows -> per-AP up/down mask.
class ApCrashInjector final : public Injector {
 public:
  explicit ApCrashInjector(std::size_t n_aps) : down_(n_aps, 0) {}
  [[nodiscard]] const char* name() const override { return "ap_crash"; }
  [[nodiscard]] bool handles(FaultKind k) const override {
    return k == FaultKind::kApCrash || k == FaultKind::kApRestart;
  }
  void on_edge(const FaultEvent& ev, bool begin, FaultHost& host) override;

  [[nodiscard]] bool down(std::size_t ap) const {
    return ap < down_.size() && down_[ap] != 0;
  }

 private:
  std::vector<std::uint8_t> down_;
};

/// Sync-header loss / corruption windows. Loss is a per-header Bernoulli
/// draw at the window's probability; corruption adds a Gaussian phase
/// error of the window's magnitude (std dev, radians).
class SyncHeaderInjector final : public Injector {
 public:
  explicit SyncHeaderInjector(std::size_t n_aps)
      : loss_(n_aps, nullptr), corrupt_(n_aps, nullptr) {}
  [[nodiscard]] const char* name() const override { return "sync_header"; }
  [[nodiscard]] bool handles(FaultKind k) const override {
    return k == FaultKind::kSyncLoss || k == FaultKind::kSyncCorrupt;
  }
  void on_edge(const FaultEvent& ev, bool begin, FaultHost& host) override;

  /// Did this slave's header get lost? Draws from `rng` only while a loss
  /// window targets the AP (a fault-free run never consumes the stream).
  [[nodiscard]] bool header_lost(std::size_t ap, Rng& rng) const;
  /// Phase error to add to this header's channel observation (0 when no
  /// corruption window is active for the AP).
  [[nodiscard]] double header_phase_error(std::size_t ap, Rng& rng) const;

 private:
  // Active window per AP (at most one of each kind at a time; the last
  // activated wins, matching plan order).
  std::vector<const FaultEvent*> loss_;
  std::vector<const FaultEvent*> corrupt_;
};

/// Oscillator phase jumps and drift-rate (CFO) steps: point events
/// forwarded straight to the host, which owns the oscillators.
class OscillatorInjector final : public Injector {
 public:
  [[nodiscard]] const char* name() const override { return "oscillator"; }
  [[nodiscard]] bool handles(FaultKind k) const override {
    return k == FaultKind::kPhaseJump || k == FaultKind::kCfoStep;
  }
  void on_edge(const FaultEvent& ev, bool begin, FaultHost& host) override;
};

/// Stale-channel windows: while active, measurement frames re-deliver the
/// previous H snapshot instead of fresh estimates.
class StaleChannelInjector final : public Injector {
 public:
  [[nodiscard]] const char* name() const override { return "stale_channel"; }
  [[nodiscard]] bool handles(FaultKind k) const override {
    return k == FaultKind::kStaleChannel;
  }
  void on_edge(const FaultEvent& ev, bool begin, FaultHost& host) override;

  [[nodiscard]] bool active() const { return depth_ > 0; }

 private:
  int depth_ = 0;
};

/// Backhaul packet loss / latency windows (the Ethernet distribution of
/// the shared downlink queue, Section 9).
class BackhaulInjector final : public Injector {
 public:
  [[nodiscard]] const char* name() const override { return "backhaul"; }
  [[nodiscard]] bool handles(FaultKind k) const override {
    return k == FaultKind::kBackhaulLoss || k == FaultKind::kBackhaulDelay;
  }
  void on_edge(const FaultEvent& ev, bool begin, FaultHost& host) override;

  /// Is this downlink packet lost on the backhaul? Draws from `rng` only
  /// inside a loss window.
  [[nodiscard]] bool packet_lost(Rng& rng) const;
  /// Extra backhaul latency for a packet enqueued now (0 outside windows).
  [[nodiscard]] double delay_s() const {
    return delay_ ? delay_->magnitude : 0.0;
  }

 private:
  const FaultEvent* loss_ = nullptr;
  const FaultEvent* delay_ = nullptr;
};

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

  /// Activate/deactivate every edge with time <= now, dispatching point
  /// events through `host`. Monotone: time never goes backwards.
  void advance_to(double now_s, FaultHost& host);
  /// advance_to with a no-op host (point events still mark counters).
  void advance_to(double now_s);

  // --- window queries (see the injectors for semantics) ---
  [[nodiscard]] bool ap_down(std::size_t ap) const {
    return crash_.down(ap);
  }
  [[nodiscard]] bool sync_header_lost(std::size_t ap) {
    return sync_.header_lost(ap, rng_);
  }
  [[nodiscard]] double sync_header_phase_error(std::size_t ap) {
    return sync_.header_phase_error(ap, rng_);
  }
  [[nodiscard]] bool stale_channel() const { return stale_.active(); }
  [[nodiscard]] bool backhaul_packet_lost() {
    return backhaul_.packet_lost(rng_);
  }
  [[nodiscard]] double backhaul_delay_s() const {
    return backhaul_.delay_s();
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

  void dispatch(const Edge& e, FaultHost& host);

  const FaultPlan* plan_;
  Rng rng_;
  std::vector<Edge> edges_;  ///< sorted by (t, begin-before-end at same t)
  std::size_t next_edge_ = 0;
  double now_ = -1.0;
  std::size_t applied_ = 0;
  double last_fault_t_ = 0.0;

  ApCrashInjector crash_;
  SyncHeaderInjector sync_;
  OscillatorInjector osc_;
  StaleChannelInjector stale_;
  BackhaulInjector backhaul_;
  Injector* injectors_[5];
};

}  // namespace jmb::fault
