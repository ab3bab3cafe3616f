#include "traffic/flow.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace jmb::traffic {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
/// Burst-size cap: the Pareto tail is heavy (infinite variance for
/// alpha <= 2), so one unlucky draw must not freeze a trial.
constexpr std::size_t kMaxBurstPkts = 1024;

/// Mean inter-packet (or inter-burst) gap in seconds for a given offered
/// rate and payload size.
double mean_gap_s(double rate_mbps, double bytes) {
  return bytes * 8.0 / (rate_mbps * 1e6);
}

double exp_draw(Rng& rng, double mean_s) {
  // uniform() is [0, 1), so 1-u is (0, 1] and the log is finite.
  return -mean_s * std::log(1.0 - rng.uniform());
}

/// Pareto burst size with the requested mean:  xm = mean*(a-1)/a  and
/// B = floor(xm / U^(1/a)), clamped to [1, kMaxBurstPkts].
std::size_t pareto_burst(Rng& rng, const FlowSpec& spec) {
  const double a = std::max(spec.pareto_alpha, 1.001);
  const double xm = spec.mean_burst_pkts * (a - 1.0) / a;
  const double u = 1.0 - rng.uniform();  // (0, 1]
  const double b = std::floor(xm / std::pow(u, 1.0 / a));
  if (b < 1.0) return 1;
  return std::min(static_cast<std::size_t>(b), kMaxBurstPkts);
}

}  // namespace

Profile make_profile(std::string_view name, double per_user_mbps) {
  Profile p;
  if (name == "poisson") {
    p.flows.push_back({FlowKind::kPoisson, per_user_mbps, 1500, 0.0});
  } else if (name == "web") {
    p.flows.push_back({FlowKind::kWeb, per_user_mbps, 1500, 0.0});
  } else if (name == "video") {
    p.flows.push_back({FlowKind::kCbr, per_user_mbps, 1316, 0.030});
  } else if (name == "mixed") {
    p.flows.push_back({FlowKind::kWeb, 0.6 * per_user_mbps, 1500, 0.0});
    p.flows.push_back({FlowKind::kCbr, 0.4 * per_user_mbps, 1316, 0.030});
  } else {
    throw std::invalid_argument("make_profile: unknown traffic profile '" +
                                std::string(name) + "'");
  }
  return p;
}

PacketSource::PacketSource(std::uint64_t base_seed, std::size_t n_users,
                           Profile profile, double horizon_s)
    : horizon_s_(horizon_s) {
  flows_.reserve(n_users * profile.flows.size());
  for (std::size_t u = 0; u < n_users; ++u) {
    for (std::size_t fi = 0; fi < profile.flows.size(); ++fi) {
      // Per-flow stream: independent of every other flow and of thread
      // count.
      FlowState& f = flows_.emplace_back(
          u, static_cast<std::uint32_t>(fi), profile.flows[fi],
          base_seed ^ static_cast<std::uint64_t>(u) ^
              (static_cast<std::uint64_t>(fi) << 16));
      const double gap =
          mean_gap_s(f.spec.rate_mbps,
                     static_cast<double>(f.spec.packet_bytes) *
                         (f.spec.kind == FlowKind::kWeb
                              ? f.spec.mean_burst_pkts
                              : 1.0));
      switch (f.spec.kind) {
        case FlowKind::kCbr:
          f.next_t = f.rng.uniform() * gap;  // random phase
          f.burst_left = 1;
          break;
        case FlowKind::kPoisson:
          f.next_t = exp_draw(f.rng, gap);
          f.burst_left = 1;
          break;
        case FlowKind::kWeb:
          f.next_t = exp_draw(f.rng, gap);
          f.burst_left = pareto_burst(f.rng, f.spec);
          break;
      }
    }
  }
}

void PacketSource::advance(FlowState& f) {
  if (f.burst_left > 1) {
    --f.burst_left;  // next packet of the burst, same instant
    return;
  }
  const double pkt_gap = mean_gap_s(
      f.spec.rate_mbps, static_cast<double>(f.spec.packet_bytes));
  switch (f.spec.kind) {
    case FlowKind::kCbr:
      f.next_t += pkt_gap;
      f.burst_left = 1;
      break;
    case FlowKind::kPoisson:
      f.next_t += exp_draw(f.rng, pkt_gap);
      f.burst_left = 1;
      break;
    case FlowKind::kWeb:
      f.next_t += exp_draw(f.rng, pkt_gap * f.spec.mean_burst_pkts);
      f.burst_left = pareto_burst(f.rng, f.spec);
      break;
  }
}

std::size_t PacketSource::drain_until(double t, net::DownlinkQueue& q) {
  std::size_t pushed = 0;
  for (;;) {
    // Global arrival order with a (time, user, flow) tie-break: flows_ is
    // ordered by (user, flow), and the strict < keeps the first minimum.
    std::size_t best = kNpos;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      if (best == kNpos || flows_[i].next_t < flows_[best].next_t) best = i;
    }
    if (best == kNpos) break;
    FlowState& f = flows_[best];
    if (f.next_t > t || f.next_t >= horizon_s_) break;
    net::Packet p;
    p.client = f.user;
    p.bytes = f.spec.packet_bytes;
    p.designated_ap = 0;
    p.enqueue_s = f.next_t;
    p.retries = 0;
    p.id = next_id_++;
    p.flow = f.flow;
    p.deadline_s =
        f.spec.deadline_s > 0.0 ? f.next_t + f.spec.deadline_s : 0.0;
    q.push(p);
    ++pushed;
    ++offered_packets_;
    offered_bytes_ += p.bytes;
    advance(f);
  }
  return pushed;
}

double PacketSource::next_arrival_s() const {
  double best = std::numeric_limits<double>::infinity();
  for (const FlowState& f : flows_) best = std::min(best, f.next_t);
  return best >= horizon_s_ ? std::numeric_limits<double>::infinity() : best;
}

}  // namespace jmb::traffic
