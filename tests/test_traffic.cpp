// Tests for the traffic subsystem: deterministic flow generators,
// A-MPDU-style aggregation bounds, the scheduling policies (FIFO / PF /
// EDF), and the traffic-mode MAC end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "net/mac.h"
#include "net/queue.h"
#include "rate/effective_snr.h"
#include "traffic/arrival_tree.h"
#include "traffic/flow.h"
#include "traffic/policy.h"

namespace jmb::traffic {
namespace {

using net::AggLimits;
using net::DownlinkQueue;
using net::Packet;

/// One client's aggregated allocation: pop_aggregate_into's packets and
/// payload bytes.
struct AggFrame {
  std::size_t client = 0;
  std::vector<Packet> mpdus;
  std::size_t total_bytes = 0;
};

AggFrame pop_aggregate(DownlinkQueue& q, std::size_t client,
                       const AggLimits& lim) {
  AggFrame frame;
  frame.client = client;
  frame.total_bytes = q.pop_aggregate_into(client, lim, frame.mpdus);
  return frame;
}

/// Queued packets for `client`, counted by draining a copy of the queue.
std::size_t backlog(const DownlinkQueue& q, std::size_t client) {
  DownlinkQueue copy = q;
  std::vector<Packet> out;
  const auto all = static_cast<std::size_t>(-1);
  (void)copy.pop_aggregate_into(client, AggLimits{all, all}, out);
  return out.size();
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- flow generators ----------------------------------------------------

TEST(Profile, NamedMixesScaleToPerUserRate) {
  const Profile poisson = make_profile("poisson", 12.0);
  ASSERT_EQ(poisson.flows.size(), 1u);
  EXPECT_EQ(poisson.flows[0].kind, FlowKind::kPoisson);
  EXPECT_NEAR(poisson.flows[0].rate_mbps, 12.0, 1e-12);

  const Profile video = make_profile("video", 6.0);
  ASSERT_EQ(video.flows.size(), 1u);
  EXPECT_EQ(video.flows[0].kind, FlowKind::kCbr);
  EXPECT_GT(video.flows[0].deadline_s, 0.0);

  const Profile mixed = make_profile("mixed", 10.0);
  ASSERT_EQ(mixed.flows.size(), 2u);
  double total = 0.0;
  for (const auto& f : mixed.flows) total += f.rate_mbps;
  EXPECT_NEAR(total, 10.0, 1e-12);

  EXPECT_THROW(make_profile("voip", 1.0), std::invalid_argument);
}

TEST(Profile, RejectsPerUserRateThatIsNotFiniteAndPositive) {
  // A negative or NaN rate used to make drain_until push packets at one
  // instant until the allocator gave up.
  for (const char* name : {"poisson", "web", "video", "mixed"}) {
    for (const double bad : {-1.0, 0.0, kNan, kInf}) {
      EXPECT_THROW(make_profile(name, bad), std::invalid_argument)
          << name << " at " << bad;
    }
  }
}

// A one-flow profile whose spec `edit` corrupts; PacketSource must refuse
// it with a message naming `field`.
template <class Edit>
void expect_spec_rejected(const char* field, Edit edit) {
  for (const char* name : {"poisson", "web", "video"}) {
    Profile p = make_profile(name, 4.0);
    edit(p.flows[0]);
    try {
      PacketSource src(1, 2, p, 0.1);
      ADD_FAILURE() << name << ": " << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

TEST(PacketSource, RejectsBadRate) {
  for (const double bad : {-1.0, 0.0, kNan, kInf}) {
    expect_spec_rejected("rate_mbps", [&](FlowSpec& f) { f.rate_mbps = bad; });
  }
}

TEST(PacketSource, RejectsZeroPacketBytes) {
  // A zero gap: a CBR flow would emit forever at one instant.
  expect_spec_rejected("packet_bytes", [](FlowSpec& f) { f.packet_bytes = 0; });
}

TEST(PacketSource, RejectsBadDeadline) {
  for (const double bad : {-0.01, kNan, kInf}) {
    expect_spec_rejected("deadline_s",
                         [&](FlowSpec& f) { f.deadline_s = bad; });
  }
}

TEST(PacketSource, RejectsBadParetoAlpha) {
  // A NaN tail index reached pareto_burst's size_t cast (undefined).
  for (const double bad : {1.0, 0.5, -2.0, kNan, kInf}) {
    expect_spec_rejected("pareto_alpha",
                         [&](FlowSpec& f) { f.pareto_alpha = bad; });
  }
}

TEST(PacketSource, RejectsBadMeanBurst) {
  for (const double bad : {0.0, 0.5, -8.0, kNan, kInf}) {
    expect_spec_rejected("mean_burst_pkts",
                         [&](FlowSpec& f) { f.mean_burst_pkts = bad; });
  }
}

TEST(PacketSource, RejectsBadHorizon) {
  for (const double bad : {-0.1, kNan}) {
    EXPECT_THROW(PacketSource(1, 2, make_profile("mixed", 4.0), bad),
                 std::invalid_argument);
  }
  // An unbounded horizon is valid: generation then ends only with t.
  PacketSource src(1, 2, make_profile("mixed", 4.0), kInf);
  DownlinkQueue q;
  EXPECT_GT(src.drain_until(0.1, q), 0u);
  EXPECT_GT(src.next_arrival_s(), 0.1);
  EXPECT_LT(src.next_arrival_s(), kInf);
}

TEST(PacketSource, NoUsersIsAnEmptySource) {
  PacketSource src(1, 0, make_profile("mixed", 4.0), 0.1);
  DownlinkQueue q;
  EXPECT_EQ(src.drain_until(1.0, q), 0u);
  EXPECT_EQ(src.next_arrival_s(), kInf);
  EXPECT_TRUE(q.empty());
}

// Drain a source completely and return the arrival sequence as
// comparable tuples (time, user, flow, bytes).
std::vector<std::tuple<double, std::size_t, std::uint32_t, std::size_t>>
arrival_sequence(PacketSource& src, double horizon_s) {
  DownlinkQueue q;
  src.drain_until(horizon_s, q);
  std::vector<std::tuple<double, std::size_t, std::uint32_t, std::size_t>> out;
  while (auto p = q.pop()) {
    out.emplace_back(p->enqueue_s, p->client, p->flow, p->bytes);
  }
  return out;
}

TEST(PacketSource, SameSeedSameArrivals) {
  const Profile profile = make_profile("mixed", 8.0);
  PacketSource a(42, 3, profile, 0.5);
  PacketSource b(42, 3, profile, 0.5);
  const auto sa = arrival_sequence(a, 0.5);
  const auto sb = arrival_sequence(b, 0.5);
  EXPECT_FALSE(sa.empty());
  EXPECT_EQ(sa, sb);

  PacketSource c(43, 3, profile, 0.5);
  EXPECT_NE(sa, arrival_sequence(c, 0.5));
}

TEST(PacketSource, PerUserStreamsIndependentOfUserCount) {
  // Flow RNGs are seeded base ^ user ^ (flow << 16), so user u's arrival
  // process must not change when more users join the cell — that is what
  // keeps sharded/threaded runs byte-identical.
  const Profile profile = make_profile("web", 5.0);
  PacketSource two(7, 2, profile, 0.25);
  PacketSource three(7, 3, profile, 0.25);
  auto s2 = arrival_sequence(two, 0.25);
  auto s3 = arrival_sequence(three, 0.25);
  // Keep only users 0 and 1 from the 3-user run.
  std::erase_if(s3, [](const auto& t) { return std::get<1>(t) >= 2; });
  EXPECT_EQ(s2, s3);
}

TEST(PacketSource, IncrementalDrainMatchesOneShot) {
  const Profile profile = make_profile("poisson", 10.0);
  PacketSource one(9, 2, profile, 0.4);
  PacketSource many(9, 2, profile, 0.4);
  const auto whole = arrival_sequence(one, 0.4);

  DownlinkQueue q;
  for (double t = 0.0; t <= 0.4 + 1e-9; t += 0.01) many.drain_until(t, q);
  std::vector<std::tuple<double, std::size_t, std::uint32_t, std::size_t>> inc;
  while (auto p = q.pop()) {
    inc.emplace_back(p->enqueue_s, p->client, p->flow, p->bytes);
  }
  EXPECT_EQ(whole, inc);
  EXPECT_EQ(many.offered_packets(), whole.size());
}

TEST(PacketSource, ArrivalsOrderedAndPastDrainPoint) {
  const Profile profile = make_profile("mixed", 20.0);
  PacketSource src(11, 4, profile, 0.3);
  DownlinkQueue q;
  src.drain_until(0.1, q);
  double prev = 0.0;
  while (auto p = q.pop()) {
    EXPECT_GE(p->enqueue_s, prev);
    EXPECT_LE(p->enqueue_s, 0.1);
    prev = p->enqueue_s;
  }
  // The next pending arrival is strictly in the future...
  EXPECT_GT(src.next_arrival_s(), 0.1);
  // ...and the horizon exhausts the process.
  src.drain_until(10.0, q);
  EXPECT_EQ(src.next_arrival_s(), std::numeric_limits<double>::infinity());
}

TEST(PacketSource, OfferedRateTracksProfile) {
  // Long-run offered load should land near rate_mbps for every kind.
  for (const char* name : {"poisson", "web", "video"}) {
    const double rate = 16.0;
    PacketSource src(21, 1, make_profile(name, rate), 4.0);
    DownlinkQueue q;
    src.drain_until(4.0, q);
    const double mbps =
        static_cast<double>(src.offered_bytes()) * 8.0 / 4.0 / 1e6;
    EXPECT_NEAR(mbps, rate, rate * 0.25) << name;
  }
}

// ---- arrival order: tournament tree vs the linear scan ------------------

// The first minimum a left-to-right scan with a strict < finds: the order
// the tree must reproduce, ties to the lower index.
std::size_t first_minimum(const std::vector<double>& keys) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (keys[i] < keys[best]) best = i;
  }
  return best;
}

TEST(ArrivalTree, TiesGoToTheLowerIndex) {
  for (std::size_t n = 1; n <= 9; ++n) {
    ArrivalTree tree(std::vector<double>(n, 2.0));
    EXPECT_EQ(tree.top(), 0u) << n;
    // Tie the last leaf with the current winner from below, then lower a
    // middle leaf onto the same time: the lowest tied index wins each time.
    tree.set(n - 1, 1.0);
    EXPECT_EQ(tree.top(), n - 1) << n;
    tree.set(n / 2, 1.0);
    EXPECT_EQ(tree.top(), n / 2) << n;
    tree.set(0, 1.0);
    EXPECT_EQ(tree.top(), 0u) << n;
    // Raising the winner hands the tie to the next-lowest index.
    tree.set(0, 3.0);
    EXPECT_EQ(tree.top(), n == 1 ? 0u : n / 2) << n;
    EXPECT_EQ(tree.top_key(), n == 1 ? 3.0 : 1.0) << n;
  }
  // +infinity keys still beat the padding: a real leaf stays on top.
  ArrivalTree inf(std::vector<double>(3, kInf));
  EXPECT_EQ(inf.top(), 0u);
  // No leaves: the root is a padding slot at +infinity.
  ArrivalTree empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.top_key(), kInf);
}

TEST(ArrivalTree, MatchesTheLinearScanUnderUpdates) {
  // Keys from a four-value set, so most matches are ties; every update
  // must leave the root on the scan's first minimum.
  Rng rng(17);
  for (std::size_t n = 1; n <= 40; ++n) {
    std::vector<double> keys(n);
    for (double& k : keys) k = rng.uniform_int(0, 3);
    ArrivalTree tree(keys);
    ASSERT_EQ(tree.size(), n);
    for (int step = 0; step < 200; ++step) {
      ASSERT_EQ(tree.top(), first_minimum(keys)) << n << " step " << step;
      ASSERT_EQ(tree.top_key(), keys[first_minimum(keys)]);
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(n) - 1));
      keys[i] = rng.uniform_int(0, 3);
      tree.set(i, keys[i]);
      ASSERT_EQ(tree.key(i), keys[i]);
    }
  }
}

// The arrival source before the tree: every drain step rescans all flows
// once per packet. Kept verbatim (modulo names) as the parity reference.
class LinearScanSource {
 public:
  LinearScanSource(std::uint64_t base_seed, std::size_t n_users,
                   const Profile& profile, double horizon_s)
      : horizon_s_(horizon_s) {
    flows_.reserve(n_users * profile.flows.size());
    for (std::size_t u = 0; u < n_users; ++u) {
      for (std::size_t fi = 0; fi < profile.flows.size(); ++fi) {
        Flow& f = flows_.emplace_back(
            u, static_cast<std::uint32_t>(fi), profile.flows[fi],
            base_seed ^ static_cast<std::uint64_t>(u) ^
                (static_cast<std::uint64_t>(fi) << 16));
        const double gap =
            gap_s(f.spec.rate_mbps,
                  static_cast<double>(f.spec.packet_bytes) *
                      (f.spec.kind == FlowKind::kWeb ? f.spec.mean_burst_pkts
                                                     : 1.0));
        switch (f.spec.kind) {
          case FlowKind::kCbr:
            f.next_t = f.rng.uniform() * gap;
            f.burst_left = 1;
            break;
          case FlowKind::kPoisson:
            f.next_t = exp_draw(f.rng, gap);
            f.burst_left = 1;
            break;
          case FlowKind::kWeb:
            f.next_t = exp_draw(f.rng, gap);
            f.burst_left = burst(f.rng, f.spec);
            break;
        }
      }
    }
  }

  std::size_t drain_until(double t, DownlinkQueue& q) {
    std::size_t pushed = 0;
    for (;;) {
      std::size_t best = kNone;
      for (std::size_t i = 0; i < flows_.size(); ++i) {
        if (best == kNone || flows_[i].next_t < flows_[best].next_t) best = i;
      }
      if (best == kNone) break;
      Flow& f = flows_[best];
      if (f.next_t > t || f.next_t >= horizon_s_) break;
      Packet p;
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

  double next_arrival_s() const {
    double best = kInf;
    for (const Flow& f : flows_) best = std::min(best, f.next_t);
    return best >= horizon_s_ ? kInf : best;
  }

  std::size_t offered_packets() const { return offered_packets_; }
  std::size_t offered_bytes() const { return offered_bytes_; }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Flow {
    Flow(std::size_t u, std::uint32_t fl, const FlowSpec& s,
         std::uint64_t seed)
        : user(u), flow(fl), spec(s), rng(seed) {}
    std::size_t user = 0;
    std::uint32_t flow = 0;
    FlowSpec spec;
    Rng rng;
    double next_t = 0.0;
    std::size_t burst_left = 1;
  };

  static double gap_s(double rate_mbps, double bytes) {
    return bytes * 8.0 / (rate_mbps * 1e6);
  }
  static double exp_draw(Rng& rng, double mean_s) {
    return -mean_s * std::log(1.0 - rng.uniform());
  }
  static std::size_t burst(Rng& rng, const FlowSpec& spec) {
    const double a = std::max(spec.pareto_alpha, 1.001);
    const double xm = spec.mean_burst_pkts * (a - 1.0) / a;
    const double u = 1.0 - rng.uniform();
    const double b = std::floor(xm / std::pow(u, 1.0 / a));
    if (b < 1.0) return 1;
    return std::min(static_cast<std::size_t>(b), std::size_t{1024});
  }

  void advance(Flow& f) {
    if (f.burst_left > 1) {
      --f.burst_left;
      return;
    }
    const double pkt_gap =
        gap_s(f.spec.rate_mbps, static_cast<double>(f.spec.packet_bytes));
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
        f.burst_left = burst(f.rng, f.spec);
        break;
    }
  }

  std::vector<Flow> flows_;
  double horizon_s_;
  std::uint64_t next_id_ = 0;
  std::size_t offered_packets_ = 0;
  std::size_t offered_bytes_ = 0;
};

// Pop everything and check it field by field against `want`'s pops.
void expect_same_packets(DownlinkQueue& got, DownlinkQueue& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  while (auto w = want.pop()) {
    const auto g = got.pop();
    ASSERT_TRUE(g.has_value()) << where;
    ASSERT_EQ(g->client, w->client) << where;
    ASSERT_EQ(g->bytes, w->bytes) << where;
    ASSERT_EQ(g->designated_ap, w->designated_ap) << where;
    ASSERT_EQ(g->enqueue_s, w->enqueue_s) << where;
    ASSERT_EQ(g->retries, w->retries) << where;
    ASSERT_EQ(g->id, w->id) << where;
    ASSERT_EQ(g->flow, w->flow) << where;
    ASSERT_EQ(g->deadline_s, w->deadline_s) << where;
  }
}

TEST(PacketSourceParity, MatchesTheLinearScanSource) {
  // Every profile, user counts 1..40 (flow counts 1..80, mostly not a power
  // of two), three seeds each, drained in uneven steps: zero-length
  // repeats, steps landing exactly on the next arrival, and steps running
  // past the horizon.
  constexpr double kHorizonS = 0.04;
  Rng steps(2024);
  for (const char* name : {"poisson", "web", "video", "mixed"}) {
    const Profile profile = make_profile(name, 6.0);
    for (std::size_t users = 1; users <= 40; ++users) {
      for (const std::uint64_t seed : {1ull, 31ull, 0xDEADBEEFull}) {
        const std::string where = std::string(name) + " users " +
                                  std::to_string(users) + " seed " +
                                  std::to_string(seed);
        PacketSource tree(seed, users, profile, kHorizonS);
        LinearScanSource scan(seed, users, profile, kHorizonS);
        ASSERT_EQ(tree.next_arrival_s(), scan.next_arrival_s()) << where;
        DownlinkQueue qt, qs;
        double t = 0.0;
        while (t < 1.5 * kHorizonS) {
          const int roll = steps.uniform_int(0, 5);
          if (roll == 0) {
            // repeat the same instant
          } else if (roll == 1 && scan.next_arrival_s() < kInf) {
            t = scan.next_arrival_s();  // exactly on an arrival
          } else {
            t += steps.uniform(0.0, 3e-3);
          }
          ASSERT_EQ(tree.drain_until(t, qt), scan.drain_until(t, qs))
              << where << " t " << t;
          ASSERT_EQ(tree.next_arrival_s(), scan.next_arrival_s())
              << where << " t " << t;
          expect_same_packets(qt, qs, where);
        }
        EXPECT_EQ(tree.next_arrival_s(), kInf) << where;
        EXPECT_EQ(tree.offered_packets(), scan.offered_packets()) << where;
        EXPECT_EQ(tree.offered_bytes(), scan.offered_bytes()) << where;
      }
    }
  }
}

// ---- aggregation --------------------------------------------------------

TEST(Aggregation, FrameAndByteBoundsHold) {
  DownlinkQueue q;
  for (std::size_t i = 0; i < 8; ++i) {
    q.push({0, 1500, 0, 0.0, 0, i});
  }
  // Frame cap.
  AggFrame f = pop_aggregate(q, 0, AggLimits{3, static_cast<std::size_t>(-1)});
  ASSERT_EQ(f.mpdus.size(), 3u);
  EXPECT_EQ(f.total_bytes, 4500u);
  EXPECT_EQ(f.mpdus[0].id, 0u);  // arrival order preserved
  EXPECT_EQ(f.mpdus[2].id, 2u);
  // Byte cap: 4000 bytes fits two 1500 B packets, not three.
  f = pop_aggregate(q, 0, AggLimits{8, 4000});
  EXPECT_EQ(f.mpdus.size(), 2u);
  EXPECT_EQ(f.total_bytes, 3000u);
  // Head always taken, even when it alone exceeds the byte budget.
  f = pop_aggregate(q, 0, AggLimits{8, 100});
  EXPECT_EQ(f.mpdus.size(), 1u);
  // Empty subqueue -> empty frame; other clients untouched.
  EXPECT_EQ(backlog(q, 0), 2u);
  EXPECT_TRUE(pop_aggregate(q, 5, AggLimits{4, 8000}).mpdus.empty());
}

TEST(Aggregation, DefaultLimitsReproduceSinglePacketPop) {
  DownlinkQueue q;
  q.push({2, 700, 0, 0.0, 0, 1});
  q.push({2, 900, 0, 0.0, 0, 2});
  const AggFrame f = pop_aggregate(q, 2, AggLimits{});
  ASSERT_EQ(f.mpdus.size(), 1u);
  EXPECT_EQ(f.mpdus[0].id, 1u);
  EXPECT_EQ(f.total_bytes, 700u);
}

// A queue of `n` packets over `clients` clients with mixed sizes, some
// re-queued at the front (retries), so subqueues mix both sequence signs.
DownlinkQueue scrambled_queue(Rng& rng, std::size_t n, int clients) {
  DownlinkQueue q;
  for (std::size_t i = 0; i < n; ++i) {
    Packet p{static_cast<std::size_t>(rng.uniform_int(0, clients - 1)),
             static_cast<std::size_t>(rng.uniform_int(40, 1500)), 0, 0.0, 0,
             i};
    p.deadline_s =
        rng.uniform_int(0, 2) == 0 ? 0.0 : 0.01 * rng.uniform_int(1, 4);
    if (rng.uniform_int(0, 4) == 0) {
      q.push_front(p);
    } else {
      q.push(p);
    }
  }
  return q;
}

TEST(Aggregation, PopAggregateIntoMatchesPopAggregate) {
  Rng rng(77);
  const std::vector<Packet> prefix{{9, 100, 0, 0.0, 0, 1000},
                                   {9, 200, 0, 0.0, 0, 1001}};
  for (int round = 0; round < 50; ++round) {
    DownlinkQueue a = scrambled_queue(rng, 96, 6);
    DownlinkQueue b = a;
    while (!a.empty()) {
      const auto client = static_cast<std::size_t>(rng.uniform_int(0, 7));
      const AggLimits lim{static_cast<std::size_t>(rng.uniform_int(0, 5)),
                          static_cast<std::size_t>(rng.uniform_int(0, 6000))};
      const AggFrame f = pop_aggregate(a, client, lim);
      std::vector<Packet> out = prefix;
      const std::size_t bytes = b.pop_aggregate_into(client, lim, out);
      ASSERT_EQ(f.client, client);
      ASSERT_EQ(bytes, f.total_bytes);
      ASSERT_EQ(out.size(), prefix.size() + f.mpdus.size());
      for (std::size_t i = 0; i < prefix.size(); ++i) {
        ASSERT_EQ(out[i].id, prefix[i].id);  // appended, never overwritten
      }
      for (std::size_t i = 0; i < f.mpdus.size(); ++i) {
        const Packet& g = out[prefix.size() + i];
        const Packet& w = f.mpdus[i];
        ASSERT_EQ(g.client, w.client);
        ASSERT_EQ(g.bytes, w.bytes);
        ASSERT_EQ(g.id, w.id);
        ASSERT_EQ(g.retries, w.retries);
        ASSERT_EQ(g.deadline_s, w.deadline_s);
      }
      ASSERT_EQ(a.size(), b.size());
      ASSERT_EQ(backlog(a, client), backlog(b, client));
    }
  }
}

TEST(Aggregation, ClientsFifoMatchesPopJointOrder) {
  // pop_joint still ranks clients by sorting (sequence, client) pairs;
  // clients_fifo must give the same order, retries at the front included.
  Rng rng(78);
  for (int round = 0; round < 100; ++round) {
    const DownlinkQueue q = scrambled_queue(rng, 40, 12);
    DownlinkQueue copy = q;
    const std::vector<Packet> heads =
        copy.pop_joint(static_cast<std::size_t>(-1));
    const std::vector<std::size_t> order = q.clients_fifo();
    ASSERT_EQ(order.size(), heads.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      ASSERT_EQ(order[i], heads[i].client) << "round " << round;
    }
  }
}

// ---- scheduling policies ------------------------------------------------

TEST(Policy, FifoMatchesPopJointOrder) {
  // The FIFO policy must reproduce pop_joint's client order bit-for-bit:
  // that is what keeps the null-scheduler and FifoScheduler paths
  // byte-identical. Exercise several rounds over a scrambled queue.
  Rng rng(5);
  DownlinkQueue a, b;
  for (std::size_t i = 0; i < 64; ++i) {
    const Packet p{static_cast<std::size_t>(rng.uniform_int(0, 7)), 1500, 0,
                   0.0, 0, i};
    a.push(p);
    b.push(p);
  }
  FifoScheduler fifo;
  while (!a.empty()) {
    const auto picks = fifo.select(b, 4, 0.0, nullptr);
    const auto batch = a.pop_joint(4);
    ASSERT_EQ(picks.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(picks[i], batch[i].client);
      const AggFrame f = pop_aggregate(b, picks[i], AggLimits{});
      ASSERT_EQ(f.mpdus.size(), 1u);
      EXPECT_EQ(f.mpdus[0].id, batch[i].id);
    }
  }
  EXPECT_TRUE(b.empty());
}

TEST(Policy, PfConvergesToEqualRatesForSymmetricUsers) {
  // Two always-backlogged clients with identical achievable rates, one
  // stream per slot: PF must alternate, giving equal long-run service.
  DownlinkQueue q;
  for (std::size_t i = 0; i < 4096; ++i) {
    q.push({i % 2, 1500, 0, 0.0, 0, i});
  }
  PfScheduler pf(0.05);
  const net::RateHintFn hint = [](std::size_t) { return 24.0; };
  std::size_t served[2] = {0, 0};
  const double slot_s = 1e-3;
  for (int s = 0; s < 1000 && !q.empty(); ++s) {
    const auto picks = pf.select(q, 1, s * slot_s, &hint);
    ASSERT_EQ(picks.size(), 1u);
    const AggFrame f = pop_aggregate(q, picks[0], AggLimits{});
    ++served[picks[0]];
    pf.on_served(picks[0], static_cast<double>(f.total_bytes), slot_s);
    pf.on_slot(slot_s);
  }
  EXPECT_NEAR(static_cast<double>(served[0]), static_cast<double>(served[1]),
              1.0);
  EXPECT_NEAR(pf.ewma_mbps(0), pf.ewma_mbps(1), 0.25);
  EXPECT_GT(pf.ewma_mbps(0), 1.0);  // filter actually charged
}

TEST(Policy, PfPrioritizesStarvedClient) {
  DownlinkQueue q;
  q.push({0, 1500, 0, 0.0, 0, 1});
  q.push({1, 1500, 0, 0.0, 0, 2});
  PfScheduler pf(0.05);
  // Serve client 0 heavily without ever serving client 1.
  for (int s = 0; s < 50; ++s) {
    pf.on_served(0, 1500.0, 1e-3);
    pf.on_slot(1e-3);
  }
  const auto picks = pf.select(q, 2, 0.05, nullptr);
  ASSERT_EQ(picks.size(), 2u);
  EXPECT_EQ(picks[0], 1u);  // starved client outranks the well-served one
  EXPECT_EQ(picks[1], 0u);
}

TEST(Policy, EdfNeverInvertsReadyDeadlines) {
  // Head-of-line deadlines scrambled across clients: the selection must
  // come out in non-decreasing deadline order, deadline-free (0) last,
  // and ties must keep FIFO order. Randomized rounds to cover shuffles.
  Rng rng(13);
  EdfScheduler edf;
  for (int round = 0; round < 20; ++round) {
    DownlinkQueue q;
    const std::size_t n = 8;
    for (std::size_t c = 0; c < n; ++c) {
      Packet p{c, 1500, 0, 0.0, 0, c};
      // ~1 in 4 packets best-effort, the rest with deadlines in [10,110] ms.
      const int roll = rng.uniform_int(0, 3);
      p.deadline_s = roll == 0 ? 0.0 : 0.01 + 0.1 * rng.uniform();
      q.push(p);
    }
    const auto picks = edf.select(q, n, 0.0, nullptr);
    ASSERT_EQ(picks.size(), n);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double prev = -1.0;
    for (const std::size_t c : picks) {
      const double d = q.front_of(c)->deadline_s;
      const double eff = d <= 0.0 ? kInf : d;
      EXPECT_GE(eff, prev);
      prev = eff;
    }
  }
}

// ---- policies vs their std::stable_sort versions ------------------------

// The selections before the insertion sort, kept as parity references.
std::vector<std::size_t> stable_sort_fifo(const DownlinkQueue& q,
                                          std::size_t max_streams) {
  std::vector<std::size_t> out = q.clients_fifo();
  if (out.size() > max_streams) out.resize(max_streams);
  return out;
}

std::vector<std::size_t> stable_sort_pf(const DownlinkQueue& q,
                                        std::size_t max_streams,
                                        const PfScheduler& pf,
                                        const net::RateHintFn* rate_hint) {
  std::vector<std::size_t> out = q.clients_fifo();
  std::vector<double> prio(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    double rate = 1.0;
    if (rate_hint && *rate_hint) {
      const double hint = (*rate_hint)(out[i]);
      if (hint > 0.0) rate = hint;
    }
    prio[i] = rate / std::max(pf.ewma_mbps(out[i]), 1e-6);
  }
  std::vector<std::size_t> order(out.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return prio[a] > prio[b];
                   });
  std::vector<std::size_t> picked;
  for (std::size_t i : order) {
    if (picked.size() >= max_streams) break;
    picked.push_back(out[i]);
  }
  return picked;
}

std::vector<std::size_t> stable_sort_edf(const DownlinkQueue& q,
                                         std::size_t max_streams) {
  std::vector<std::size_t> out = q.clients_fifo();
  const auto deadline_of = [&](std::size_t c) {
    const Packet* p = q.front_of(c);
    return !p || p->deadline_s <= 0.0 ? kInf : p->deadline_s;
  };
  std::stable_sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
    return deadline_of(a) < deadline_of(b);
  });
  if (out.size() > max_streams) out.resize(max_streams);
  return out;
}

TEST(PolicyParity, SelectionsMatchTheStableSortVersions) {
  // Scrambled queues with few distinct deadlines (ties, deadline-free
  // heads) and rate hints from a small set (equal PF priorities), served
  // slot by slot so PF's EWMA state evolves between selections.
  Rng rng(91);
  FifoScheduler fifo;
  EdfScheduler edf;
  for (int round = 0; round < 40; ++round) {
    DownlinkQueue q = scrambled_queue(rng, 120, 12);
    PfScheduler pf(0.02);
    const int rate_levels = 1 + round % 3;
    const net::RateHintFn hint = [&](std::size_t c) {
      return 12.0 * static_cast<double>(1 + static_cast<int>(c) % rate_levels);
    };
    const net::RateHintFn* hints[] = {nullptr, &hint};
    // Stream counts from none to more than the 12 clients.
    const std::size_t stream_counts[] = {0, 1, 2, 3, 4, 5, 16};
    for (int slot = 0; !q.empty(); ++slot) {
      const std::size_t streams = stream_counts[slot % 7];
      const net::RateHintFn* h = hints[slot % 2];
      ASSERT_EQ(fifo.select(q, streams, 0.0, h), stable_sort_fifo(q, streams));
      ASSERT_EQ(edf.select(q, streams, 0.0, h), stable_sort_edf(q, streams));
      const std::vector<std::size_t> picks = pf.select(q, streams, 0.0, h);
      ASSERT_EQ(picks, stable_sort_pf(q, streams, pf, h))
          << "round " << round << " slot " << slot;
      for (const std::size_t c : picks) {
        const AggFrame f = pop_aggregate(q, c, AggLimits{2, 3000});
        pf.on_served(c, static_cast<double>(f.total_bytes), 1e-3);
      }
      pf.on_slot(1e-3);
    }
  }
}

TEST(Policy, FactoryMapsNamesAndRejectsUnknown) {
  EXPECT_EQ(make_scheduler("fifo")->name(), "fifo");
  EXPECT_EQ(make_scheduler("pf")->name(), "pf");
  EXPECT_EQ(make_scheduler("edf")->name(), "edf");
  EXPECT_THROW(make_scheduler("round-robin"), std::invalid_argument);
}

// ---- traffic-mode MAC end to end ----------------------------------------

net::LinkStateFn flat_links(double snr_db) {
  return [snr_db](std::size_t) {
    return net::LinkState{rvec(phy::kNumDataCarriers, from_db(snr_db))};
  };
}

net::MacParams base_traffic_params() {
  net::MacParams p;
  p.duration_s = 0.2;
  p.saturated = false;
  p.record_latency = true;
  p.agg = AggLimits{4, 8000};
  return p;
}

TEST(TrafficMac, FlowsAccountedAndDeterministic) {
  const Profile profile = make_profile("mixed", 10.0);
  const auto run = [&](net::Scheduler* sched) {
    PacketSource src(99, 4, profile, 0.2);
    net::MacParams p = base_traffic_params();
    p.traffic = &src;
    p.scheduler = sched;
    return net::run_jmb_mac(4, 4, 4, flat_links(25.0), p);
  };
  PfScheduler pf_a, pf_b;
  const net::MacReport a = run(&pf_a);
  const net::MacReport b = run(&pf_b);

  EXPECT_FALSE(a.flows.empty());
  EXPECT_GT(a.offered_packets, 0u);
  std::size_t delivered = 0, dropped = 0;
  for (const auto& f : a.flows) {
    delivered += f.delivered;
    dropped += f.dropped;
  }
  EXPECT_LE(delivered + dropped, a.offered_packets);
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(a.aggregated_mpdus, 0u);  // deep arrivals actually aggregate
  EXPECT_GT(a.total_goodput_mbps, 0.0);

  // Same seed, fresh scheduler state: bit-identical accounting.
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].delivered, b.flows[i].delivered);
    EXPECT_EQ(a.flows[i].delivered_bytes, b.flows[i].delivered_bytes);
    EXPECT_EQ(a.flows[i].deadline_misses, b.flows[i].deadline_misses);
    EXPECT_DOUBLE_EQ(a.flows[i].mean_latency_s, b.flows[i].mean_latency_s);
  }
  EXPECT_DOUBLE_EQ(a.total_goodput_mbps, b.total_goodput_mbps);
}

TEST(TrafficMac, NullSchedulerMatchesFifoPolicy) {
  // MacParams::scheduler == nullptr is documented as "FIFO"; running the
  // explicit FifoScheduler must reproduce it exactly.
  const Profile profile = make_profile("poisson", 12.0);
  const auto run = [&](net::Scheduler* sched) {
    PacketSource src(123, 3, profile, 0.2);
    net::MacParams p = base_traffic_params();
    p.traffic = &src;
    p.scheduler = sched;
    return net::run_jmb_mac(4, 3, 3, flat_links(22.0), p);
  };
  FifoScheduler fifo;
  const net::MacReport implicit = run(nullptr);
  const net::MacReport explicit_fifo = run(&fifo);
  ASSERT_EQ(implicit.flows.size(), explicit_fifo.flows.size());
  for (std::size_t i = 0; i < implicit.flows.size(); ++i) {
    EXPECT_EQ(implicit.flows[i].delivered, explicit_fifo.flows[i].delivered);
    EXPECT_EQ(implicit.flows[i].delivered_bytes,
              explicit_fifo.flows[i].delivered_bytes);
    EXPECT_DOUBLE_EQ(implicit.flows[i].mean_latency_s,
                     explicit_fifo.flows[i].mean_latency_s);
  }
  EXPECT_DOUBLE_EQ(implicit.total_goodput_mbps,
                   explicit_fifo.total_goodput_mbps);
  EXPECT_EQ(implicit.joint_transmissions, explicit_fifo.joint_transmissions);
}

TEST(TrafficMac, BaselineTrafficModeRuns) {
  const Profile profile = make_profile("video", 4.0);
  PacketSource src(55, 2, profile, 0.2);
  net::MacParams p = base_traffic_params();
  p.traffic = &src;
  const net::MacReport r = net::run_baseline_mac(2, flat_links(20.0), p);
  EXPECT_FALSE(r.flows.empty());
  EXPECT_EQ(r.joint_transmissions, 0u);
  std::size_t delivered = 0;
  for (const auto& f : r.flows) delivered += f.delivered;
  EXPECT_GT(delivered, 0u);
}

}  // namespace
}  // namespace jmb::traffic
