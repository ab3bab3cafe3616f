// User churn and mobility for metro-scale cells.
//
// Each (trial, cell) pair owns a deterministic churn timeline: every user
// slot runs an independent on/off renewal process (exponential attach and
// detach dwell times — Poisson arrivals and departures in aggregate), and
// a departing user hands off to a grid-adjacent cell with probability
// handoff_fraction. Timelines are a pure function of (trial seed, cell),
// so a shard reconstructs its *incoming* hand-offs by regenerating its
// neighbors' timelines and adopting their hand-offs targeted at itself —
// cross-cell coupling with zero cross-shard communication, deterministic
// for any shard schedule.
#pragma once

#include <cstdint>
#include <vector>

#include "chan/topology.h"
#include "net/mac.h"

namespace jmb::metro {

struct ChurnParams {
  std::size_t users_per_cell = 4;
  /// Re-attach rate per detached user slot (Hz). 0 = slots never return.
  double arrival_rate_hz = 0.0;
  /// Detach rate per attached user (Hz). 0 together with arrival_rate_hz
  /// disables churn entirely: no events, no RNG draws.
  double departure_rate_hz = 0.0;
  /// Fraction of departures that hand off to a grid-adjacent cell
  /// (meaningless with a single cell — every departure is then plain).
  double handoff_fraction = 0.3;
  double duration_s = 1.0;
};

enum class ChurnEventType : std::uint8_t {
  kArrival = 0,     ///< detached slot re-attaches (fresh user)
  kDeparture = 1,   ///< attached user leaves the system
  kHandoffOut = 2,  ///< attached user leaves toward peer_cell
  kHandoffIn = 3,   ///< user from peer_cell attaches here (reconstructed)
};

struct ChurnEvent {
  double t_s = 0.0;
  ChurnEventType type = ChurnEventType::kArrival;
  std::size_t user = 0;       ///< user slot within the emitting cell
  std::size_t peer_cell = 0;  ///< hand-offs only: the other cell
};

/// The cell's own event timeline, time-ordered. Pure function of its
/// arguments: regenerating any cell's timeline from any shard yields the
/// same events. Returns an empty vector (zero draws) when both rates are
/// zero.
[[nodiscard]] std::vector<ChurnEvent> churn_timeline(
    std::uint64_t trial_seed, std::size_t cell, std::size_t n_cells,
    const chan::CellGridParams& grid, const ChurnParams& p);

struct ChurnStats {
  std::size_t arrivals = 0;
  std::size_t departures = 0;  ///< plain departures (hand-offs excluded)
  std::size_t handoffs_out = 0;
  std::size_t handoffs_in = 0;         ///< accepted into a free slot
  std::size_t blocked_handoffs = 0;    ///< no free slot at arrival time
};

/// One cell's resolved activity schedule: its own timeline plus incoming
/// hand-offs reconstructed from every neighbor's timeline. Every user
/// slot starts attached (saturated start, like the paper's testbed).
class CellChurn {
 public:
  CellChurn(std::uint64_t trial_seed, std::size_t cell, std::size_t n_cells,
            const chan::CellGridParams& grid, const ChurnParams& p);

  /// Is user slot `user` attached at virtual time t?
  [[nodiscard]] bool active(std::size_t user, double t_s) const;

  /// Hand-off arrival instants (sorted): each newcomer forces a channel
  /// re-measurement epoch (MacParams::remeasure_at).
  [[nodiscard]] const std::vector<double>& remeasure_times() const {
    return remeasure_;
  }
  [[nodiscard]] const ChurnStats& stats() const { return stats_; }

  /// Adapter for MacParams::activity. Captures `this`: the CellChurn must
  /// outlive the MAC run.
  [[nodiscard]] net::ActivityFn activity_fn() const {
    return [this](std::size_t user, double t_s) { return active(user, t_s); };
  }

 private:
  struct Transition {
    double t_s = 0.0;
    bool attach = false;
  };
  /// Per-slot attach/detach transitions, time-ordered; state at t is the
  /// value of the last transition at or before t (initially attached).
  std::vector<std::vector<Transition>> per_user_;
  std::vector<double> remeasure_;
  ChurnStats stats_;
};

}  // namespace jmb::metro
