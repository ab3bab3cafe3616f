#include "traffic/flow.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace jmb::traffic {

namespace {

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
  if (!(std::isfinite(per_user_mbps) && per_user_mbps > 0.0)) {
    throw std::invalid_argument(
        "make_profile: per_user_mbps must be finite and > 0");
  }
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
                           const Profile& profile, double horizon_s)
    : horizon_s_(horizon_s) {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("PacketSource: ") + what);
  };
  for (const FlowSpec& s : profile.flows) {
    require(std::isfinite(s.rate_mbps) && s.rate_mbps > 0.0,
            "FlowSpec::rate_mbps must be finite and > 0");
    require(s.packet_bytes > 0, "FlowSpec::packet_bytes must be > 0");
    require(std::isfinite(s.deadline_s) && s.deadline_s >= 0.0,
            "FlowSpec::deadline_s must be finite and >= 0");
    require(std::isfinite(s.pareto_alpha) && s.pareto_alpha > 1.0,
            "FlowSpec::pareto_alpha must be finite and > 1");
    require(std::isfinite(s.mean_burst_pkts) && s.mean_burst_pkts >= 1.0,
            "FlowSpec::mean_burst_pkts must be finite and >= 1");
  }
  require(horizon_s >= 0.0, "horizon_s must be >= 0");

  // Per-flow stream: independent of every other flow and of thread count.
  const std::size_t per_user = profile.flows.size();
  std::vector<std::uint64_t> seeds(n_users * per_user);
  flows_.resize(seeds.size());
  for (std::size_t u = 0; u < n_users; ++u) {
    for (std::size_t fi = 0; fi < per_user; ++fi) {
      const std::size_t i = u * per_user + fi;
      seeds[i] = base_seed ^ static_cast<std::uint64_t>(u) ^
                 (static_cast<std::uint64_t>(fi) << 16);
      FlowState& f = flows_[i];
      f.user = u;
      f.flow = static_cast<std::uint32_t>(fi);
      f.spec = profile.flows[fi];
      const double pkt_gap = mean_gap_s(
          f.spec.rate_mbps, static_cast<double>(f.spec.packet_bytes));
      f.mean_step_s = f.spec.kind == FlowKind::kWeb
                          ? pkt_gap * f.spec.mean_burst_pkts
                          : pkt_gap;
    }
  }
  rngs_ = Rng::many(seeds);

  std::vector<double> first(flows_.size());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    FlowState& f = flows_[i];
    Rng& rng = rngs_[i];
    // The first gap is priced on one burst-sized payload, which rounds
    // differently from mean_step_s; the arrival sequence depends on it.
    const double gap =
        mean_gap_s(f.spec.rate_mbps,
                   static_cast<double>(f.spec.packet_bytes) *
                       (f.spec.kind == FlowKind::kWeb ? f.spec.mean_burst_pkts
                                                      : 1.0));
    switch (f.spec.kind) {
      case FlowKind::kCbr:
        first[i] = rng.uniform() * gap;  // random phase
        break;
      case FlowKind::kPoisson:
        first[i] = exp_draw(rng, gap);
        break;
      case FlowKind::kWeb:
        first[i] = exp_draw(rng, gap);
        f.burst_left = pareto_burst(rng, f.spec);
        break;
    }
  }
  next_ = ArrivalTree(std::move(first));
}

void PacketSource::advance(std::size_t i) {
  FlowState& f = flows_[i];
  if (f.burst_left > 1) {
    --f.burst_left;  // next packet of the burst, same instant: no replay
    return;
  }
  double next = next_.key(i);
  switch (f.spec.kind) {
    case FlowKind::kCbr:
      next += f.mean_step_s;
      break;
    case FlowKind::kPoisson:
      next += exp_draw(rngs_[i], f.mean_step_s);
      break;
    case FlowKind::kWeb:
      next += exp_draw(rngs_[i], f.mean_step_s);
      f.burst_left = pareto_burst(rngs_[i], f.spec);
      break;
  }
  next_.set(i, next);
}

std::size_t PacketSource::drain_until(double t, net::DownlinkQueue& q) {
  std::size_t pushed = 0;
  // The tree's root is the global arrival order's next packet: earliest
  // time, then lowest (user, flow) index.
  for (double at = next_.top_key(); at <= t && at < horizon_s_;
       at = next_.top_key()) {
    const std::size_t i = next_.top();
    const FlowState& f = flows_[i];
    net::Packet p;
    p.client = f.user;
    p.bytes = f.spec.packet_bytes;
    p.designated_ap = 0;
    p.enqueue_s = at;
    p.retries = 0;
    p.id = next_id_++;
    p.flow = f.flow;
    p.deadline_s = f.spec.deadline_s > 0.0 ? at + f.spec.deadline_s : 0.0;
    q.push(p);
    ++pushed;
    ++offered_packets_;
    offered_bytes_ += p.bytes;
    advance(i);
  }
  return pushed;
}

double PacketSource::next_arrival_s() const {
  const double best = next_.top_key();
  return best >= horizon_s_ ? std::numeric_limits<double>::infinity() : best;
}

}  // namespace jmb::traffic
