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

/// A window slot takes `ev` on its begin edge; its end edge clears the
/// slot only if a later window has not taken it over.
void set_window(const FaultEvent*& slot, const FaultEvent& ev, bool begin) {
  if (begin) {
    slot = &ev;
  } else if (slot == &ev) {
    slot = nullptr;
  }
}

}  // namespace

FaultSession::FaultSession(const FaultPlan& plan, std::size_t n_aps,
                           std::uint64_t trial_seed)
    : plan_(&plan),
      rng_(mix_seeds(plan.seed(), trial_seed)),
      last_fault_t_(-std::numeric_limits<double>::infinity()),
      aps_(n_aps) {
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
  // The plan's events are stable-sorted by t_s, so begin edges fire in
  // plan order: the events one advance_to() begins are a contiguous range
  // of plan.events().
  std::stable_sort(edges_.begin(), edges_.end(),
                   [](const Edge& a, const Edge& b) {
                     if (a.t != b.t) return a.t < b.t;
                     return !a.begin && b.begin;
                   });
}

void FaultSession::dispatch(const Edge& e) {
  const FaultEvent& ev = plan_->events()[e.event];
  ApWindows* ap = ev.ap < aps_.size() ? &aps_[ev.ap] : nullptr;
  switch (ev.kind) {
    case FaultKind::kApCrash:
      if (ap) ap->down = e.begin;
      break;
    case FaultKind::kApRestart:
      if (ap) ap->down = false;
      break;
    case FaultKind::kSyncLoss:
      if (ap) set_window(ap->sync_loss, ev, e.begin);
      break;
    case FaultKind::kSyncCorrupt:
      if (ap) set_window(ap->sync_corrupt, ev, e.begin);
      break;
    case FaultKind::kStaleChannel:
      stale_depth_ += e.begin ? 1 : -1;
      break;
    case FaultKind::kBackhaulLoss:
      set_window(backhaul_loss_, ev, e.begin);
      break;
    case FaultKind::kBackhaulDelay:
      set_window(backhaul_delay_, ev, e.begin);
      break;
    case FaultKind::kPhaseJump:
    case FaultKind::kCfoStep:
      break;  // the host applies these from advance_to's span
  }
  if (e.begin) {
    ++applied_;
    last_fault_t_ = ev.t_s;
  }
}

std::span<const FaultEvent> FaultSession::advance_to(double now_s) {
  if (now_s < now_) return {};  // monotone; ignore out-of-order pumps
  now_ = now_s;
  const std::size_t first = applied_;
  while (next_edge_ < edges_.size() && edges_[next_edge_].t <= now_s) {
    dispatch(edges_[next_edge_]);
    ++next_edge_;
  }
  return std::span(plan_->events()).subspan(first, applied_ - first);
}

bool FaultSession::sync_header_lost(std::size_t ap) {
  if (ap >= aps_.size() || aps_[ap].sync_loss == nullptr) return false;
  return rng_.bernoulli(aps_[ap].sync_loss->probability);
}

double FaultSession::sync_header_phase_error(std::size_t ap) {
  if (ap >= aps_.size() || aps_[ap].sync_corrupt == nullptr) return 0.0;
  const FaultEvent& ev = *aps_[ap].sync_corrupt;
  if (ev.probability < 1.0 && !rng_.bernoulli(ev.probability)) return 0.0;
  return rng_.gaussian(ev.magnitude);
}

bool FaultSession::backhaul_packet_lost() {
  if (backhaul_loss_ == nullptr) return false;
  return rng_.bernoulli(backhaul_loss_->probability);
}

}  // namespace jmb::fault
