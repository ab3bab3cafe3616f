// Conference-room geometry: AP positions on ledges around the perimeter,
// clients scattered inside, log-distance path loss with lognormal
// shadowing and a LOS/NLOS mix — reproducing the "significantly diverse
// SNRs ... due to obstacles such as pillars, furniture, ledges" of the
// paper's testbed (Section 10c, Fig. 5).
#pragma once

#include <cstdint>
#include <vector>

#include "dsp/rng.h"

namespace jmb::chan {

struct Position {
  double x = 0.0;  ///< meters
  double y = 0.0;

  [[nodiscard]] double distance_to(const Position& o) const;
};

struct PathLossParams {
  double ref_loss_db = 40.0;     ///< loss at 1 m (2.4 GHz indoor)
  double exponent_los = 2.0;
  double exponent_nlos = 3.2;
  double shadowing_sigma_db = 3.0;
  double nlos_probability = 0.35;
  double tx_power_dbm = 10.0;
  double noise_floor_dbm = -91.0;  ///< thermal + NF over 10 MHz
};

struct Link {
  double gain = 0.0;      ///< linear power gain (signal power / tx power)
  bool line_of_sight = true;
  double distance_m = 0.0;
  double snr_db = 0.0;    ///< at the configured tx power / noise floor
};

/// A sampled room layout: positions and the (AP x client) link budget.
struct Topology {
  std::vector<Position> aps;
  std::vector<Position> clients;
  /// links[client][ap]
  std::vector<std::vector<Link>> links;
};

struct RoomParams {
  double width_m = 18.0;
  double height_m = 12.0;
  PathLossParams path_loss;
};

/// Sample a random placement of n_aps APs (perimeter ledges) and n_clients
/// clients (interior), with per-link path loss.
[[nodiscard]] Topology sample_topology(std::size_t n_aps, std::size_t n_clients,
                                       const RoomParams& room, Rng& rng);

/// Resample client positions until every client's *best-AP* SNR falls in
/// [lo_db, hi_db] — how the paper picks topologies per SNR range
/// ("place nodes ... such that all clients obtain an effective SNR in the
/// desired range"). Gives up after `max_tries` and returns the closest
/// attempt, clamping link gains into the band.
[[nodiscard]] Topology sample_topology_in_band(std::size_t n_aps,
                                               std::size_t n_clients,
                                               const RoomParams& room, Rng& rng,
                                               double lo_db, double hi_db,
                                               int max_tries = 200);

/// Dense-deployment link gains: every client has a distinct nearby AP
/// whose SNR lands in [lo_db, hi_db], with the remaining APs a few dB
/// below (clients scatter across the room, so each is close to *some*
/// AP). This diagonal dominance is what keeps the paper's channel
/// matrices "random and well conditioned" even at 10x10.
[[nodiscard]] std::vector<std::vector<double>> diverse_link_gains(
    std::size_t n_aps, std::size_t n_clients, double lo_db, double hi_db,
    Rng& rng);

// ---------------------------------------------------------------------------
// Metro-scale cell grid: each cell is one conference-room-sized JMB
// cluster; cells tile a square-ish grid with `pitch_m` between centers.
// Neighboring clusters leak into each other through walls and streets —
// modeled as distance-based coupling applied as a per-subcarrier noise
// rise at the victim cell (see inter_cell_interference).
// ---------------------------------------------------------------------------

struct CellGridParams {
  std::size_t cols = 4;   ///< grid columns; cell i sits at (i % cols, i / cols)
  double pitch_m = 30.0;  ///< center-to-center spacing
};

/// Center of cell `cell` on the grid (row-major placement).
[[nodiscard]] Position cell_center(std::size_t cell, const CellGridParams& g);

/// Center-to-center distance between two cells (symmetric).
[[nodiscard]] double cell_distance_m(std::size_t a, std::size_t b,
                                     const CellGridParams& g);

struct InterCellParams {
  /// Neighbor cluster's in-band transmit level over the victim's noise
  /// floor, before coupling loss (dB).
  double tx_snr_db = 30.0;
  /// Coupling loss at ref_distance_m (dB): walls + street-level clutter.
  double leakage_ref_db = 30.0;
  double ref_distance_m = 30.0;
  /// Beyond-ref falloff exponent (urban canyon, > indoor NLOS).
  double exponent = 3.5;
  /// Linear multiplier on the whole term; 0 disables inter-cell coupling
  /// exactly (every leakage gain is 0.0, so no pair draws or adds
  /// anything).
  double coupling_scale = 1.0;
};

/// Mean linear interference-to-noise gain contributed by a neighbor
/// `distance_m` away: coupling_scale * 10^((tx_snr_db - loss(d)) / 10)
/// with loss(d) = leakage_ref_db + 10 * exponent * log10(d / ref), d
/// clamped to ref_distance_m from below. Monotone non-increasing in
/// distance; exactly 0.0 when coupling_scale == 0.
[[nodiscard]] double inter_cell_leakage_gain(double distance_m,
                                             const InterCellParams& p);

/// Aggregate per-subcarrier interference power at cell `self` from every
/// other cell on the grid, in units of the victim's noise floor
/// (noise-rise: post-interference SNR'[k] = SNR[k] / (1 + I[k])).
///
/// Each (cell pair, subcarrier) gets an independent Rayleigh-faded draw
/// seeded from `trial_seed` and the *unordered* pair — deterministic for
/// any shard schedule, and symmetric: cell a sees the same fade toward b
/// as b toward a. `duty[j]` scales neighbor j's contribution by its
/// transmit duty cycle (fraction of airtime actually occupied); pass 1.0
/// for saturated neighbors. Pairs with zero leakage gain or zero duty are
/// skipped without a draw, so coupling_scale == 0 returns all zeros.
[[nodiscard]] std::vector<double> inter_cell_interference(
    std::size_t self, std::size_t n_cells, const CellGridParams& grid,
    const InterCellParams& p, std::size_t n_subcarriers,
    std::uint64_t trial_seed, const std::vector<double>& duty);

}  // namespace jmb::chan
