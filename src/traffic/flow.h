// Deterministic per-user flow generators: the traffic side of the
// overload story. Each user carries a small set of flows (CBR "video",
// Poisson, or Pareto-burst "web"), and every flow runs on its own RNG
// stream seeded `base ^ user ^ (flow << 16)`, so the arrival sequence is
// a pure function of the seed — independent of thread count, trial order,
// and of how many *other* users exist. That is what lets bench exports
// stay byte-identical for any JMB_THREADS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "dsp/rng.h"
#include "net/queue.h"
#include "net/traffic_api.h"
#include "traffic/arrival_tree.h"

namespace jmb::traffic {

enum class FlowKind {
  kCbr,      ///< fixed inter-packet gap, random initial phase (video)
  kPoisson,  ///< exponential inter-arrival (generic data)
  kWeb,      ///< Poisson burst arrivals, Pareto burst sizes (web browsing)
};

/// One flow's statistical shape. The long-run offered rate is rate_mbps
/// for every kind; the kinds differ in burstiness.
struct FlowSpec {
  FlowKind kind = FlowKind::kPoisson;
  double rate_mbps = 1.0;        ///< long-run offered load
  std::size_t packet_bytes = 1500;
  /// Relative delivery deadline stamped on each packet (EDF scheduling);
  /// 0 = best-effort, no deadline.
  double deadline_s = 0.0;
  // --- kWeb shape ---
  double pareto_alpha = 1.5;      ///< burst-size tail index (1 < alpha)
  double mean_burst_pkts = 8.0;   ///< mean burst size, packets
};

/// The flow set every user runs (users are statistically identical but
/// draw from independent RNG streams).
struct Profile {
  std::vector<FlowSpec> flows;
};

/// Named workload mixes for the JMB_TRAFFIC knob, scaled so each user
/// offers per_user_mbps in total:
///   "poisson" — one Poisson flow;
///   "web"     — one Pareto-burst web flow;
///   "video"   — one CBR flow with a 30 ms delivery deadline;
///   "mixed"   — 60% web + 40% deadline CBR video.
/// Throws std::invalid_argument for an unknown name or a per_user_mbps
/// that is not finite and > 0.
[[nodiscard]] Profile make_profile(std::string_view name,
                                   double per_user_mbps);

/// Deterministic packet arrival process over n_users identical Profile
/// instances. Packets are emitted in global arrival order with a strict
/// (time, user, flow) tie-break; generation stops at horizon_s.
///
/// Throws std::invalid_argument, naming the field, unless every FlowSpec
/// has rate_mbps finite and > 0, packet_bytes > 0, deadline_s finite and
/// >= 0, pareto_alpha finite and > 1 and mean_burst_pkts finite and >= 1,
/// and horizon_s >= 0. Outside these a flow can emit packets without end
/// at one instant or reach an undefined float-to-integer cast.
class PacketSource final : public net::TrafficSource {
 public:
  PacketSource(std::uint64_t base_seed, std::size_t n_users,
               const Profile& profile, double horizon_s);

  /// O(1) when nothing is due; O(log flows) per emitted packet that ends
  /// its burst, O(1) per packet inside one.
  std::size_t drain_until(double t, net::DownlinkQueue& q) override;
  /// O(1): the arrival tree's root.
  [[nodiscard]] double next_arrival_s() const override;

  /// Arrival-side accounting (what was offered, not what was served).
  [[nodiscard]] std::size_t offered_packets() const {
    return offered_packets_;
  }
  [[nodiscard]] std::size_t offered_bytes() const { return offered_bytes_; }

 private:
  /// One flow's cold state; its next arrival lives in next_ and its
  /// stream in rngs_, at the same index.
  struct FlowState {
    std::size_t user = 0;
    std::uint32_t flow = 0;
    FlowSpec spec;
    double mean_step_s = 0.0;    ///< mean gap to the next packet (burst)
    std::size_t burst_left = 1;  ///< packets left at this arrival (kWeb)
  };

  /// Advance flow i past the packet just emitted: same-instant burst
  /// packets first, then the next scheduled arrival (one tree replay).
  void advance(std::size_t i);

  std::vector<FlowState> flows_;  ///< in (user, flow) order
  std::vector<Rng> rngs_;
  ArrivalTree next_;              ///< next arrival per flow, earliest first
  double horizon_s_ = 0.0;
  std::uint64_t next_id_ = 0;
  std::size_t offered_packets_ = 0;
  std::size_t offered_bytes_ = 0;
};

}  // namespace jmb::traffic
