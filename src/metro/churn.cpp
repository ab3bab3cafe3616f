#include "metro/churn.h"

#include <algorithm>
#include <cmath>

namespace jmb::metro {

namespace {

/// Independent stream per (trial, cell, user): splitmix-style odd
/// multipliers keep nearby indices decorrelated, and the mapping never
/// depends on how many shards run or in what order.
Rng slot_rng(std::uint64_t trial_seed, std::size_t cell, std::size_t user) {
  return Rng(trial_seed ^ (0x9e3779b97f4a7c15ull * (cell + 1)) ^
             (0xd1b54a32d192ed03ull * (user + 1)));
}

double exp_dwell(Rng& rng, double rate_hz) {
  // -log1p(-u) keeps u == 0 finite and is exact near zero.
  return -std::log1p(-rng.uniform()) / rate_hz;
}

/// Grid-adjacent cells (orthogonal neighbors): the only hand-off targets.
std::vector<std::size_t> neighbors_of(std::size_t cell, std::size_t n_cells,
                                      const chan::CellGridParams& grid) {
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < n_cells; ++j) {
    if (j == cell) continue;
    if (cell_distance_m(cell, j, grid) <= grid.pitch_m * 1.01) {
      out.push_back(j);
    }
  }
  return out;
}

}  // namespace

std::vector<ChurnEvent> churn_timeline(std::uint64_t trial_seed,
                                       std::size_t cell, std::size_t n_cells,
                                       const chan::CellGridParams& grid,
                                       const ChurnParams& p) {
  std::vector<ChurnEvent> events;
  if (p.departure_rate_hz <= 0.0) return events;  // attached forever
  const std::vector<std::size_t> neighbors = neighbors_of(cell, n_cells, grid);

  for (std::size_t u = 0; u < p.users_per_cell; ++u) {
    Rng rng = slot_rng(trial_seed, cell, u);
    bool attached = true;  // saturated start
    double t = 0.0;
    while (true) {
      if (attached) {
        t += exp_dwell(rng, p.departure_rate_hz);
        if (t >= p.duration_s) break;
        const bool handoff = !neighbors.empty() &&
                             rng.uniform() < p.handoff_fraction;
        std::size_t peer = 0;
        if (handoff) {
          peer = neighbors[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<int>(neighbors.size()) - 1))];
        }
        events.push_back({t,
                          handoff ? ChurnEventType::kHandoffOut
                                  : ChurnEventType::kDeparture,
                          u, peer});
        attached = false;
      } else {
        if (p.arrival_rate_hz <= 0.0) break;  // never returns
        t += exp_dwell(rng, p.arrival_rate_hz);
        if (t >= p.duration_s) break;
        events.push_back({t, ChurnEventType::kArrival, u, 0});
        attached = true;
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const ChurnEvent& a, const ChurnEvent& b) {
              if (a.t_s != b.t_s) return a.t_s < b.t_s;
              return a.user < b.user;
            });
  return events;
}

CellChurn::CellChurn(std::uint64_t trial_seed, std::size_t cell,
                     std::size_t n_cells, const chan::CellGridParams& grid,
                     const ChurnParams& p)
    : per_user_(p.users_per_cell) {
  for (const ChurnEvent& ev :
       churn_timeline(trial_seed, cell, n_cells, grid, p)) {
    switch (ev.type) {
      case ChurnEventType::kArrival:
        ++stats_.arrivals;
        per_user_[ev.user].push_back({ev.t_s, true});
        break;
      case ChurnEventType::kDeparture:
        ++stats_.departures;
        per_user_[ev.user].push_back({ev.t_s, false});
        break;
      case ChurnEventType::kHandoffOut:
        ++stats_.handoffs_out;
        per_user_[ev.user].push_back({ev.t_s, false});
        break;
      case ChurnEventType::kHandoffIn:
        break;  // never emitted by churn_timeline
    }
  }

  // Reconstruct incoming hand-offs from every other cell's timeline —
  // pure regeneration, no cross-shard state. Collect first so arrivals
  // from different neighbors interleave in time order (with a
  // deterministic (t, source cell, user) tie-break).
  struct Incoming {
    double t_s;
    std::size_t from_cell;
    std::size_t user;
  };
  std::vector<Incoming> incoming;
  if (p.departure_rate_hz > 0.0 && p.handoff_fraction > 0.0) {
    for (std::size_t j = 0; j < n_cells; ++j) {
      if (j == cell) continue;
      for (const ChurnEvent& ev :
           churn_timeline(trial_seed, j, n_cells, grid, p)) {
        if (ev.type == ChurnEventType::kHandoffOut && ev.peer_cell == cell) {
          incoming.push_back({ev.t_s, j, ev.user});
        }
      }
    }
  }
  std::sort(incoming.begin(), incoming.end(),
            [](const Incoming& a, const Incoming& b) {
              if (a.t_s != b.t_s) return a.t_s < b.t_s;
              if (a.from_cell != b.from_cell) return a.from_cell < b.from_cell;
              return a.user < b.user;
            });

  // A newcomer takes the lowest detached slot; a full cell blocks the
  // hand-off (the user retries elsewhere — out of scope for this cell).
  for (const Incoming& in : incoming) {
    std::size_t slot = per_user_.size();
    for (std::size_t u = 0; u < per_user_.size(); ++u) {
      if (!active(u, in.t_s)) {
        slot = u;
        break;
      }
    }
    if (slot == per_user_.size()) {
      ++stats_.blocked_handoffs;
      continue;
    }
    ++stats_.handoffs_in;
    std::vector<Transition>& tr = per_user_[slot];
    const auto pos = std::upper_bound(
        tr.begin(), tr.end(), in.t_s,
        [](double t, const Transition& x) { return t < x.t_s; });
    tr.insert(pos, {in.t_s, true});
    remeasure_.push_back(in.t_s);
  }
}

bool CellChurn::active(std::size_t user, double t_s) const {
  if (user >= per_user_.size()) return false;
  const std::vector<Transition>& tr = per_user_[user];
  const auto pos = std::upper_bound(
      tr.begin(), tr.end(), t_s,
      [](double t, const Transition& x) { return t < x.t_s; });
  if (pos == tr.begin()) return true;  // saturated start: attached
  return std::prev(pos)->attach;
}

}  // namespace jmb::metro
