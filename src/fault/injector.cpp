#include "fault/injector.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace jmb::fault {

namespace {

/// Session RNG stream: mix the plan and trial seeds so two trials of the
/// same plan (or two plans in one trial) never share decisions.
std::uint64_t mix_seeds(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

void ApCrashInjector::on_edge(const FaultEvent& ev, bool begin,
                              FaultHost& host) {
  if (ev.ap >= down_.size()) return;
  if (ev.kind == FaultKind::kApCrash) {
    if (begin) {
      if (!down_[ev.ap]) host.on_ap_crash(ev.ap);
      down_[ev.ap] = 1;
    } else {
      if (down_[ev.ap]) host.on_ap_restart(ev.ap);
      down_[ev.ap] = 0;
    }
  } else if (ev.kind == FaultKind::kApRestart && begin) {
    if (down_[ev.ap]) host.on_ap_restart(ev.ap);
    down_[ev.ap] = 0;
  }
}

void SyncHeaderInjector::on_edge(const FaultEvent& ev, bool begin,
                                 FaultHost& host) {
  (void)host;
  if (ev.ap >= loss_.size()) return;
  std::vector<const FaultEvent*>& slot =
      ev.kind == FaultKind::kSyncLoss ? loss_ : corrupt_;
  if (begin) {
    slot[ev.ap] = &ev;
  } else if (slot[ev.ap] == &ev) {
    slot[ev.ap] = nullptr;
  }
}

bool SyncHeaderInjector::header_lost(std::size_t ap, Rng& rng) const {
  if (ap >= loss_.size() || loss_[ap] == nullptr) return false;
  return rng.bernoulli(loss_[ap]->probability);
}

double SyncHeaderInjector::header_phase_error(std::size_t ap, Rng& rng) const {
  if (ap >= corrupt_.size() || corrupt_[ap] == nullptr) return 0.0;
  const FaultEvent& ev = *corrupt_[ap];
  if (ev.probability < 1.0 && !rng.bernoulli(ev.probability)) return 0.0;
  return rng.gaussian(ev.magnitude);
}

void OscillatorInjector::on_edge(const FaultEvent& ev, bool begin,
                                 FaultHost& host) {
  if (!begin) return;
  if (ev.kind == FaultKind::kPhaseJump) {
    host.on_phase_jump(ev.ap, ev.magnitude);
  } else if (ev.kind == FaultKind::kCfoStep) {
    host.on_cfo_step(ev.ap, ev.magnitude);
  }
}

void StaleChannelInjector::on_edge(const FaultEvent& ev, bool begin,
                                   FaultHost& host) {
  (void)ev;
  (void)host;
  depth_ += begin ? 1 : -1;
}

void BackhaulInjector::on_edge(const FaultEvent& ev, bool begin,
                               FaultHost& host) {
  (void)host;
  const FaultEvent** slot =
      ev.kind == FaultKind::kBackhaulLoss ? &loss_ : &delay_;
  if (begin) {
    *slot = &ev;
  } else if (*slot == &ev) {
    *slot = nullptr;
  }
}

bool BackhaulInjector::packet_lost(Rng& rng) const {
  if (loss_ == nullptr) return false;
  return rng.bernoulli(loss_->probability);
}

FaultSession::FaultSession(const FaultPlan& plan, std::size_t n_aps,
                           std::uint64_t trial_seed)
    : plan_(&plan),
      rng_(mix_seeds(plan.seed(), trial_seed)),
      crash_(n_aps),
      sync_(n_aps),
      injectors_{&crash_, &sync_, &osc_, &stale_, &backhaul_} {
  last_fault_t_ = -std::numeric_limits<double>::infinity();
  const std::vector<FaultEvent>& events = plan.events();
  edges_.reserve(2 * events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& ev = events[i];
    edges_.push_back({ev.t_s, static_cast<std::uint32_t>(i), true});
    const double end = ev.end_s();
    if (std::isfinite(end)) {
      edges_.push_back({end, static_cast<std::uint32_t>(i), false});
    }
  }
  // Sort by time; at equal times, end edges fire before begin edges so a
  // back-to-back window pair hands over cleanly, and ties stay stable.
  std::stable_sort(edges_.begin(), edges_.end(),
                   [](const Edge& a, const Edge& b) {
                     if (a.t != b.t) return a.t < b.t;
                     return !a.begin && b.begin;
                   });
}

void FaultSession::dispatch(const Edge& e, FaultHost& host) {
  const FaultEvent& ev = plan_->events()[e.event];
  for (Injector* inj : injectors_) {
    if (inj->handles(ev.kind)) {
      inj->on_edge(ev, e.begin, host);
      break;
    }
  }
  if (e.begin) {
    ++applied_;
    last_fault_t_ = ev.t_s;
  }
}

void FaultSession::advance_to(double now_s, FaultHost& host) {
  if (now_s < now_) return;  // monotone; ignore out-of-order pumps
  now_ = now_s;
  while (next_edge_ < edges_.size() && edges_[next_edge_].t <= now_s) {
    dispatch(edges_[next_edge_], host);
    ++next_edge_;
  }
}

void FaultSession::advance_to(double now_s) {
  FaultHost null_host;
  advance_to(now_s, null_host);
}

}  // namespace jmb::fault
