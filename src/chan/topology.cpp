#include "chan/topology.h"

#include <algorithm>
#include <cmath>

#include "dsp/types.h"

namespace jmb::chan {

double Position::distance_to(const Position& o) const {
  const double dx = x - o.x, dy = y - o.y;
  return std::sqrt(dx * dx + dy * dy);
}

namespace {

Link make_link(const Position& ap, const Position& cl,
               const PathLossParams& pl, Rng& rng) {
  Link link;
  link.distance_m = std::max(ap.distance_to(cl), 0.5);
  link.line_of_sight = !rng.bernoulli(pl.nlos_probability);
  const double n = link.line_of_sight ? pl.exponent_los : pl.exponent_nlos;
  const double loss_db = pl.ref_loss_db +
                         10.0 * n * std::log10(link.distance_m) +
                         rng.gaussian(pl.shadowing_sigma_db);
  const double rx_dbm = pl.tx_power_dbm - loss_db;
  link.snr_db = rx_dbm - pl.noise_floor_dbm;
  link.gain = from_db(-loss_db);
  return link;
}

Position sample_perimeter(const RoomParams& room, Rng& rng) {
  // APs sit on ledges: within 0.5 m of a wall.
  const double margin = 0.5;
  const int side = rng.uniform_int(0, 3);
  Position p;
  switch (side) {
    case 0:
      p = {rng.uniform(0, room.width_m), rng.uniform(0, margin)};
      break;
    case 1:
      p = {rng.uniform(0, room.width_m),
           room.height_m - rng.uniform(0, margin)};
      break;
    case 2:
      p = {rng.uniform(0, margin), rng.uniform(0, room.height_m)};
      break;
    default:
      p = {room.width_m - rng.uniform(0, margin),
           rng.uniform(0, room.height_m)};
      break;
  }
  return p;
}

}  // namespace

Topology sample_topology(std::size_t n_aps, std::size_t n_clients,
                         const RoomParams& room, Rng& rng) {
  Topology topo;
  topo.aps.reserve(n_aps);
  for (std::size_t i = 0; i < n_aps; ++i) {
    topo.aps.push_back(sample_perimeter(room, rng));
  }
  topo.clients.reserve(n_clients);
  for (std::size_t i = 0; i < n_clients; ++i) {
    topo.clients.push_back({rng.uniform(1.0, room.width_m - 1.0),
                            rng.uniform(1.0, room.height_m - 1.0)});
  }
  topo.links.resize(n_clients);
  for (std::size_t c = 0; c < n_clients; ++c) {
    topo.links[c].reserve(n_aps);
    for (std::size_t a = 0; a < n_aps; ++a) {
      topo.links[c].push_back(make_link(topo.aps[a], topo.clients[c],
                                        room.path_loss, rng));
    }
  }
  return topo;
}

std::vector<std::vector<double>> diverse_link_gains(std::size_t n_aps,
                                                    std::size_t n_clients,
                                                    double lo_db, double hi_db,
                                                    Rng& rng) {
  // Random assignment of primary APs (a permutation when sizes match).
  std::vector<std::size_t> primary(n_clients);
  for (std::size_t c = 0; c < n_clients; ++c) primary[c] = c % n_aps;
  for (std::size_t c = n_clients; c-- > 1;) {
    std::swap(primary[c], primary[static_cast<std::size_t>(
                              rng.uniform_int(0, static_cast<int>(c)))]);
  }
  std::vector<std::vector<double>> gains(n_clients,
                                         std::vector<double>(n_aps, 0.0));
  for (std::size_t c = 0; c < n_clients; ++c) {
    const double best = rng.uniform(lo_db, hi_db);
    for (std::size_t a = 0; a < n_aps; ++a) {
      const double snr =
          (a == primary[c]) ? best : best - rng.uniform(3.0, 12.0);
      gains[c][a] = from_db(snr);
    }
  }
  return gains;
}

Position cell_center(std::size_t cell, const CellGridParams& g) {
  const std::size_t cols = g.cols > 0 ? g.cols : 1;
  return {static_cast<double>(cell % cols) * g.pitch_m,
          static_cast<double>(cell / cols) * g.pitch_m};
}

double cell_distance_m(std::size_t a, std::size_t b, const CellGridParams& g) {
  return cell_center(a, g).distance_to(cell_center(b, g));
}

double inter_cell_leakage_gain(double distance_m, const InterCellParams& p) {
  if (p.coupling_scale == 0.0) return 0.0;
  const double d = std::max(distance_m, p.ref_distance_m);
  const double loss_db =
      p.leakage_ref_db + 10.0 * p.exponent * std::log10(d / p.ref_distance_m);
  return p.coupling_scale * from_db(p.tx_snr_db - loss_db);
}

std::vector<double> inter_cell_interference(
    std::size_t self, std::size_t n_cells, const CellGridParams& grid,
    const InterCellParams& p, std::size_t n_subcarriers,
    std::uint64_t trial_seed, const std::vector<double>& duty) {
  std::vector<double> psd(n_subcarriers, 0.0);
  for (std::size_t j = 0; j < n_cells; ++j) {
    if (j == self) continue;
    const double d = duty.empty() ? 1.0 : duty[j % duty.size()];
    const double g = inter_cell_leakage_gain(cell_distance_m(self, j, grid), p);
    if (g <= 0.0 || d <= 0.0) continue;
    // Unordered pair key: the fade a sees toward b is the fade b sees
    // toward a, and the draw depends only on (trial, pair), never on
    // which shard computes it first.
    const std::uint64_t lo = std::min<std::uint64_t>(self, j);
    const std::uint64_t hi = std::max<std::uint64_t>(self, j);
    Rng pair_rng(trial_seed ^ (0x9e3779b97f4a7c15ull * (lo + 1)) ^
                 (0xbf58476d1ce4e5b9ull * (hi + 1)));
    for (std::size_t k = 0; k < n_subcarriers; ++k) {
      // Rayleigh-faded power with unit mean: |CN(0, 1)|^2.
      const cplx h = pair_rng.cgaussian(1.0);
      psd[k] += g * d * std::norm(h);
    }
  }
  return psd;
}

Topology sample_topology_in_band(std::size_t n_aps, std::size_t n_clients,
                                 const RoomParams& room, Rng& rng,
                                 double lo_db, double hi_db, int max_tries) {
  Topology best;
  double best_violation = 1e18;
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    Topology t = sample_topology(n_aps, n_clients, room, rng);
    double violation = 0.0;
    for (std::size_t c = 0; c < n_clients; ++c) {
      double snr = -1e18;
      for (const Link& l : t.links[c]) snr = std::max(snr, l.snr_db);
      if (snr < lo_db) violation += lo_db - snr;
      if (snr > hi_db) violation += snr - hi_db;
    }
    if (violation < best_violation) {
      best_violation = violation;
      best = std::move(t);
      if (best_violation == 0.0) return best;
    }
  }
  // Clamp the stragglers into the band by scaling all of a client's link
  // gains (equivalent to moving the client slightly / adjusting tx power).
  for (std::size_t c = 0; c < best.clients.size(); ++c) {
    double snr = -1e18;
    for (const Link& l : best.links[c]) snr = std::max(snr, l.snr_db);
    double shift_db = 0.0;
    if (snr < lo_db) shift_db = lo_db - snr;
    if (snr > hi_db) shift_db = hi_db - snr;
    if (shift_db != 0.0) {
      for (Link& l : best.links[c]) {
        l.snr_db += shift_db;
        l.gain *= from_db(shift_db);
      }
    }
  }
  return best;
}

}  // namespace jmb::chan
