#include "workloads.h"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "chan/topology.h"
#include "core/link_model.h"
#include "core/precoder.h"
#include "engine/pipeline.h"
#include "engine/system.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "fault/resilience.h"
#include "metro/churn.h"
#include "net/mac.h"
#include "phy/params.h"
#include "phy/workspace.h"
#include "rate/effective_snr.h"
#include "rate/per.h"
#include "trace.h"
#include "traffic/flow.h"
#include "traffic/policy.h"
#ifdef PERFBENCH_TRACED
#include "obs/alloc_count.h"
#endif

namespace perfbench {
namespace {

using namespace jmb;

/// Per-link residual phase-error sigma of the link-model sweeps (the
/// calibration against the sample-level Fig. 7 distribution).
constexpr double kPhaseSigma = 0.02;
/// MAC-level SIFS-like turnaround used by every link-model bench.
constexpr double kTurnaroundS = 16e-6;

struct Band {
  double lo_db;
  double hi_db;
};
/// The paper's three effective-SNR bands (Section 11).
constexpr std::array<Band, 3> kBands{{{18.0, 28.0}, {12.0, 18.0}, {6.0, 12.0}}};

/// Independent, well-mixed seed for case `i` of a cycle (splitmix64).
std::uint64_t case_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t alloc_total() {
#ifdef PERFBENCH_TRACED
  return obs::alloc_counts().allocs;
#else
  return 0;
#endif
}

/// Link states handed to the MAC during one call. The traced binary keeps
/// a copy of each so rate selection can be replayed on them afterwards
/// (rate.replay_s: rate's share of the MAC's self time, measured beside
/// it). The untraced binary records nothing.
class LinkLog {
 public:
  void note(const rvec& snr) {
    if constexpr (kTraced) {
      count(Count::kLinkQueries);
      offsets_.push_back(values_.size());
      values_.insert(values_.end(), snr.begin(), snr.end());
    }
  }

  /// Replay select_rate + frame_error_prob on every noted state, then
  /// forget them.
  void replay(std::size_t psdu_bytes) {
    if constexpr (kTraced) {
      Span span(Layer::kRateReplay);
      offsets_.push_back(values_.size());
      double acc = 0.0;
      for (std::size_t i = 0; i + 1 < offsets_.size(); ++i) {
        scratch_.assign(values_.begin() + static_cast<std::ptrdiff_t>(offsets_[i]),
                        values_.begin() +
                            static_cast<std::ptrdiff_t>(offsets_[i + 1]));
        if (const auto r = rate::select_rate(scratch_)) {
          acc += rate::frame_error_prob(scratch_, *r, psdu_bytes);
        }
      }
      sink_ += acc;
      offsets_.clear();
      values_.clear();
    }
  }

 private:
  std::vector<std::size_t> offsets_;
  rvec values_;
  rvec scratch_;
  double sink_ = 0.0;
};

std::uint64_t mac_digest(const net::MacReport& r) {
  Digest d;
  d.add(r.total_goodput_mbps);
  for (const net::ClientStats& c : r.per_client) {
    d.add(static_cast<std::uint64_t>(c.delivered));
    d.add(static_cast<std::uint64_t>(c.failed_attempts));
    d.add(static_cast<std::uint64_t>(c.dropped));
  }
  d.add(static_cast<std::uint64_t>(r.joint_transmissions));
  d.add(static_cast<std::uint64_t>(r.measurement_epochs));
  d.add(static_cast<std::uint64_t>(r.offered_packets));
  d.add(static_cast<std::uint64_t>(r.aggregated_mpdus));
  d.add(r.max_queue_depth);
  for (const net::FlowStats& f : r.flows) {
    d.add(static_cast<std::uint64_t>(f.delivered));
    d.add(static_cast<std::uint64_t>(f.dropped));
    d.add(static_cast<std::uint64_t>(f.deadline_misses));
    d.add(f.mean_latency_s);
  }
  d.add(static_cast<std::uint64_t>(r.frame_latency_s.size()));
  d.add(static_cast<std::uint64_t>(r.lead_elections));
  d.add(static_cast<std::uint64_t>(r.faults_injected));
  d.add(static_cast<std::uint64_t>(r.quarantines));
  return d.value();
}

/// One MAC entry-point call as one operation: the call is the kMac span,
/// its report the operation's digest and simulated time.
template <class Call>
void mac_op(OpLoop& loop, LinkLog& log, std::size_t psdu_bytes, Call&& call) {
  loop.op([&] {
    const std::uint64_t allocs0 = alloc_total();
    net::MacReport rep;
    {
      Span span(Layer::kMac);
      rep = call();
    }
    if constexpr (kTraced) {
      count(Count::kMacAllocs, static_cast<double>(alloc_total() - allocs0));
      count(Count::kMacCalls);
      for (const net::ClientStats& c : rep.per_client) {
        count(Count::kTxAttempts,
              static_cast<double>(c.delivered + c.failed_attempts));
        count(Count::kDelivered, static_cast<double>(c.delivered));
      }
      count(Count::kMeasurementEpochs,
            static_cast<double>(rep.measurement_epochs));
      count(Count::kAggregatedMpdus, static_cast<double>(rep.aggregated_mpdus));
      count(Count::kMaxQueueDepth, rep.max_queue_depth);
      count(Count::kFaultEvents, static_cast<double>(rep.faults_injected));
      count(Count::kQuarantines, static_cast<double>(rep.quarantines));
      count(Count::kLeadElections, static_cast<double>(rep.lead_elections));
    }
    return OpOutcome{mac_digest(rep), rep.duration_s};
  });
  log.replay(psdu_bytes);
}

net::MacParams base_mac_params(double duration_s) {
  net::MacParams mac;
  mac.duration_s = duration_s;
  mac.airtime.turnaround_s = kTurnaroundS;
  return mac;
}

std::optional<core::Precoder> timed_build(const core::ChannelMatrixSet& h,
                                          const core::PrecoderConfig& cfg) {
  Span span(Layer::kPrecoder);
  count(Count::kBuilds);
  return core::Precoder::build_kind(h, cfg);
}

std::vector<rvec> timed_sinrs(const core::ChannelMatrixSet& h,
                              const core::Precoder& precoder, Rng& rng) {
  Span span(Layer::kSinr);
  count(Count::kSinrCalls);
  return core::jmb_subcarrier_sinrs(h, precoder, kPhaseSigma, 1.0, rng);
}

/// Flat per-subcarrier SNR of each client's best AP (the 802.11 baseline's
/// link budget, which the effective-SNR selector reduces real channels to).
std::vector<rvec> best_ap_snrs(const std::vector<std::vector<double>>& gains) {
  std::vector<rvec> out;
  out.reserve(gains.size());
  for (const auto& row : gains) {
    out.emplace_back(phy::kNumDataCarriers,
                     *std::max_element(row.begin(), row.end()));
  }
  return out;
}

// ---------------------------------------------------------------------------
// saturated_scaling: Fig. 9's shape. For N = 2..10 (N APs, N clients) a
// fresh topology each cycle, in an SNR band that rotates over N and cycles,
// then a backlogged 802.11 baseline MAC and a backlogged JMB MAC over the
// closed-form link model.

class SaturatedScaling final : public Workload {
 public:
  explicit SaturatedScaling(std::uint64_t seed) : seed_(seed) {}

  void run_cycle(OpLoop& loop) override {
    for (std::size_t n = kMinN; n <= kMaxN; ++n) run_case(n, loop);
    loop.end_cycle();
    ++cycle_;
  }

 private:
  static constexpr std::size_t kMinN = 2;
  static constexpr std::size_t kMaxN = 10;
  static constexpr std::size_t kPool = 16;
  static constexpr double kDurationS = 0.1;

  void run_case(std::size_t n, OpLoop& loop) {
    const std::size_t slot = n - kMinN;
    const Band& band = kBands[(slot + cycle_) % kBands.size()];
    Rng rng(case_seed(seed_, cycle_ * (kMaxN - kMinN + 1) + slot));
    std::vector<std::vector<double>> gains;
    core::ChannelMatrixSet h(0, 0);
    {
      Span span(Layer::kChannel);
      gains = chan::diverse_link_gains(n, n, band.lo_db, band.hi_db, rng);
      h = core::well_conditioned_channel_set(gains, rng);
    }
    const auto precoder = timed_build(h, core::PrecoderConfig{});
    if (!precoder) {
      loop.fold(n);  // rank-deficient draw: the case has no operations
      return;
    }

    const std::vector<rvec> base_snrs = best_ap_snrs(gains);
    net::MacParams mac = base_mac_params(kDurationS);
    mac.seed = rng.next_u64();
    mac_op(loop, log_, mac.psdu_bytes, [&] {
      return net::run_baseline_mac(
          n,
          [&](std::size_t c) {
            Span span(Layer::kLinkState);
            log_.note(base_snrs[c]);
            return net::LinkState{base_snrs[c]};
          },
          mac);
    });

    Rng err_rng(rng.next_u64());
    std::vector<std::vector<rvec>> pool;
    pool.reserve(kPool);
    for (std::size_t i = 0; i < kPool; ++i) {
      pool.push_back(timed_sinrs(h, *precoder, err_rng));
    }
    std::size_t draw = 0;
    mac.seed = rng.next_u64();
    mac_op(loop, log_, mac.psdu_bytes, [&] {
      return net::run_jmb_mac(
          n, n, n,
          [&](std::size_t c) {
            Span span(Layer::kLinkState);
            const rvec& snr = pool[(draw++ / n) % kPool][c];
            log_.note(snr);
            return net::LinkState{snr};
          },
          mac);
    });
  }

  std::uint64_t seed_;
  std::size_t cycle_ = 0;
  LinkLog log_;
};

// ---------------------------------------------------------------------------
// traffic_overload: overload_fairness's shape. 12 users on 4 streams with
// the "mixed" web + video profile; loads 0.4/1/2x crossed with FIFO/PF/EDF,
// A-MPDU aggregation, per-flow latency accounting; JMB and 802.11 MACs fed
// byte-identical arrivals.

/// Times a TrafficSource's calls (traced binary only).
class TimedSource final : public net::TrafficSource {
 public:
  explicit TimedSource(net::TrafficSource& inner) : inner_(inner) {}
  std::size_t drain_until(double t, net::DownlinkQueue& q) override {
    Span span(Layer::kTrafficDrain);
    const std::size_t n = inner_.drain_until(t, q);
    count(Count::kPackets, static_cast<double>(n));
    return n;
  }
  [[nodiscard]] double next_arrival_s() const override {
    Span span(Layer::kTrafficDrain);
    return inner_.next_arrival_s();
  }

 private:
  net::TrafficSource& inner_;
};

/// Times a Scheduler's calls (traced binary only).
class TimedScheduler final : public net::Scheduler {
 public:
  explicit TimedScheduler(net::Scheduler& inner) : inner_(inner) {}
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] std::vector<std::size_t> select(
      const net::DownlinkQueue& q, std::size_t max_streams, double now,
      const net::RateHintFn* rate_hint) override {
    Span span(Layer::kPolicySelect);
    count(Count::kSelects);
    return inner_.select(q, max_streams, now, rate_hint);
  }
  void on_served(std::size_t client, double bytes, double slot_s) override {
    Span span(Layer::kPolicyFeedback);
    inner_.on_served(client, bytes, slot_s);
  }
  void on_slot(double slot_s) override {
    Span span(Layer::kPolicyFeedback);
    inner_.on_slot(slot_s);
  }

 private:
  net::Scheduler& inner_;
};

class TrafficOverload final : public Workload {
 public:
  explicit TrafficOverload(std::uint64_t seed) : seed_(seed) {}

  void run_cycle(OpLoop& loop) override {
    for (std::size_t i = 0; i < kCases; ++i) run_case(i, loop);
    loop.end_cycle();
    ++cycle_;
  }

 private:
  static constexpr std::size_t kAps = 4;
  static constexpr std::size_t kStreams = 4;
  static constexpr std::size_t kUsers = 12;
  static constexpr std::size_t kGroups = kUsers / kStreams;
  static constexpr std::size_t kPool = 8;
  static constexpr double kDurationS = 0.1;
  static constexpr double kNominalCapacityMbps = 120.0;
  static constexpr std::array<double, 3> kLoads{0.4, 1.0, 2.0};
  static constexpr std::array<const char*, 3> kPolicies{"fifo", "pf", "edf"};
  static constexpr std::size_t kCases = kLoads.size() * kPolicies.size();

  /// One MAC run with its own arrival source and scheduler instance; the
  /// traced binary wraps both in timing decorators.
  template <class Call>
  void run_mac(OpLoop& loop, std::uint64_t traffic_seed, double per_user_mbps,
               const char* policy, net::MacParams& mac, Call&& call) {
    traffic::PacketSource src(traffic_seed, kUsers,
                              traffic::make_profile("mixed", per_user_mbps),
                              kDurationS);
    const auto sched = traffic::make_scheduler(policy);
    TimedSource timed_src(src);
    TimedScheduler timed_sched(*sched);
    mac.traffic = kTraced ? static_cast<net::TrafficSource*>(&timed_src) : &src;
    mac.scheduler =
        kTraced ? static_cast<net::Scheduler*>(&timed_sched) : sched.get();
    mac_op(loop, log_, mac.psdu_bytes, call);
    mac.traffic = nullptr;
    mac.scheduler = nullptr;
  }

  void run_case(std::size_t i, OpLoop& loop) {
    const double load = kLoads[i / kPolicies.size()];
    const char* policy = kPolicies[i % kPolicies.size()];
    Rng rng(case_seed(seed_, cycle_ * kCases + i));

    // Users >> streams: one well-conditioned kAps x kStreams channel set
    // per group of kStreams users, each with its own SINR pool.
    std::vector<std::vector<double>> gains;
    std::vector<core::ChannelMatrixSet> h;
    {
      Span span(Layer::kChannel);
      gains = chan::diverse_link_gains(kAps, kUsers, kBands[0].lo_db,
                                       kBands[0].hi_db, rng);
      h.reserve(kGroups);
      for (std::size_t g = 0; g < kGroups; ++g) {
        const std::vector<std::vector<double>> group(
            gains.begin() + static_cast<std::ptrdiff_t>(g * kStreams),
            gains.begin() + static_cast<std::ptrdiff_t>((g + 1) * kStreams));
        h.push_back(core::well_conditioned_channel_set(group, rng));
      }
    }
    std::vector<std::vector<std::vector<rvec>>> pools(kGroups);
    {
      Rng pool_rng(rng.next_u64());
      for (std::size_t g = 0; g < kGroups; ++g) {
        const auto precoder = timed_build(h[g], core::PrecoderConfig{});
        if (!precoder) continue;
        pools[g].reserve(kPool);
        for (std::size_t k = 0; k < kPool; ++k) {
          pools[g].push_back(timed_sinrs(h[g], *precoder, pool_rng));
        }
      }
    }
    const rvec outage(phy::kNumDataCarriers, 0.0);
    std::size_t draw = 0;
    const net::LinkStateFn jmb_links = [&](std::size_t c) {
      Span span(Layer::kLinkState);
      const std::size_t g = c / kStreams;
      const rvec& snr = pools[g].empty()
                            ? outage
                            : pools[g][(draw++ / kStreams) % kPool][c % kStreams];
      log_.note(snr);
      return net::LinkState{snr};
    };
    const std::vector<rvec> base_snrs = best_ap_snrs(gains);
    const net::LinkStateFn base_links = [&](std::size_t c) {
      Span span(Layer::kLinkState);
      log_.note(base_snrs[c]);
      return net::LinkState{base_snrs[c]};
    };

    const double per_user_mbps = load * kNominalCapacityMbps / kUsers;
    const std::uint64_t traffic_seed = rng.next_u64();
    net::MacParams mac = base_mac_params(kDurationS);
    mac.saturated = false;
    mac.record_latency = true;
    mac.agg = {4, 8000};

    mac.seed = rng.next_u64();
    run_mac(loop, traffic_seed, per_user_mbps, policy, mac, [&] {
      return net::run_jmb_mac(kAps, kUsers, kStreams, jmb_links, mac);
    });
    mac.seed = rng.next_u64();
    run_mac(loop, traffic_seed, per_user_mbps, policy, mac, [&] {
      return net::run_baseline_mac(kUsers, base_links, mac);
    });
  }

  std::uint64_t seed_;
  std::size_t cycle_ = 0;
  LinkLog log_;
};

// ---------------------------------------------------------------------------
// churn_failover: resilience_curve's crash-rate sweep with user churn.
// N + 1 APs serve N clients under FaultPlan::random_crashes; a
// metro::CellChurn timeline (cell 0 of a 2 x 2 grid, so hand-ins arrive
// from the neighbours) gates who is attached and forces re-measurements.
// Both resilient MAC loops run; JMB rebuilds a masked precoder for every
// new surviving set.

/// Lazily built SINR pool per active-AP mask behind a MaskedLinkStateFn.
class MaskedPools {
 public:
  MaskedPools(const core::ChannelMatrixSet& h, std::size_t n_streams,
              std::uint64_t seed, LinkLog& log)
      : h_(h), n_streams_(n_streams), err_rng_(seed), log_(log) {}

  net::LinkState state(std::size_t client,
                       const std::vector<std::uint8_t>& mask) {
    Span span(Layer::kLinkState);
    auto [it, fresh] = pools_.try_emplace(mask);
    if (fresh) build(it->second, mask);
    const rvec& snr =
        it->second.empty()
            ? outage_
            : it->second[(draw_++ / n_streams_) % kPool][client];
    log_.note(snr);
    return net::LinkState{snr};
  }

 private:
  static constexpr std::size_t kPool = 8;

  void build(std::vector<std::vector<rvec>>& pool,
             const std::vector<std::uint8_t>& mask) {
    const std::uint64_t t0 = kTraced ? obs::flight::now_ticks() : 0;
    std::optional<core::Precoder> precoder;
    {
      Span span(Layer::kPrecoder);
      count(Count::kBuilds);
      count(Count::kMaskedBuilds);
      precoder = core::Precoder::build_masked(h_, mask, ws_, 1.0);
    }
    if (precoder) {
      pool.reserve(kPool);
      for (std::size_t i = 0; i < kPool; ++i) {
        pool.push_back(timed_sinrs(h_, *precoder, err_rng_));
      }
    }
    // Too few survivors to zero-force every stream: the pool stays empty
    // and the zero-SNR state makes the slot an outage.
    if constexpr (kTraced) {
      count(Count::kMaskedPoolTicks,
            static_cast<double>(obs::flight::now_ticks() - t0));
    }
  }

  const core::ChannelMatrixSet& h_;
  std::size_t n_streams_;
  Rng err_rng_;
  LinkLog& log_;
  Workspace ws_;
  std::map<std::vector<std::uint8_t>, std::vector<std::vector<rvec>>> pools_;
  rvec outage_ = rvec(phy::kNumDataCarriers, 0.0);
  std::size_t draw_ = 0;
};

class ChurnFailover final : public Workload {
 public:
  explicit ChurnFailover(std::uint64_t seed) : seed_(seed) {}

  void run_cycle(OpLoop& loop) override {
    for (std::size_t i = 0; i < kCrashRates.size(); ++i) run_case(i, loop);
    loop.end_cycle();
    ++cycle_;
  }

 private:
  static constexpr std::size_t kClients = 4;
  static constexpr std::size_t kAps = kClients + 1;
  static constexpr double kDurationS = 0.3;
  static constexpr double kOutageS = 0.1;
  static constexpr std::array<double, 4> kCrashRates{1.0, 2.0, 4.0, 8.0};
  static constexpr double kChurnRateHz = 2.0;
  static constexpr std::size_t kCells = 4;

  void run_case(std::size_t i, OpLoop& loop) {
    const double crash_rate = kCrashRates[i];
    const std::uint64_t cseed = case_seed(seed_, cycle_ * kCrashRates.size() + i);
    Rng rng(cseed);
    std::vector<std::vector<double>> gains;
    core::ChannelMatrixSet h(0, 0);
    {
      Span span(Layer::kChannel);
      gains = chan::diverse_link_gains(kAps, kClients, kBands[0].lo_db,
                                       kBands[0].hi_db, rng);
      h = core::well_conditioned_channel_set(gains, rng);
    }

    std::optional<fault::FaultPlan> plan;
    {
      Span span(Layer::kFaultPlan);
      plan.emplace(fault::FaultPlan::random_crashes(crash_rate, kDurationS,
                                                    kAps, kOutageS, cseed));
    }
    std::optional<metro::CellChurn> churn;
    {
      Span span(Layer::kChurnBuild);
      metro::ChurnParams cp;
      cp.users_per_cell = kClients;
      cp.arrival_rate_hz = kChurnRateHz;
      cp.departure_rate_hz = kChurnRateHz;
      cp.duration_s = kDurationS;
      churn.emplace(cseed, 0, kCells, chan::CellGridParams{2, 30.0}, cp);
    }

    net::MacParams mac = base_mac_params(kDurationS);
    if constexpr (kTraced) {
      mac.activity = [&churn](std::size_t user, double t) {
        Span span(Layer::kChurnActivity);
        count(Count::kActivityCalls);
        return churn->active(user, t);
      };
    } else {
      mac.activity = churn->activity_fn();
    }
    mac.remeasure_at = churn->remeasure_times();

    MaskedPools pools(h, kClients, rng.next_u64(), log_);
    const net::MaskedLinkStateFn jmb_links =
        [&pools](std::size_t c, const std::vector<std::uint8_t>& mask) {
          return pools.state(c, mask);
        };
    std::optional<fault::FaultSession> session;
    std::optional<fault::ResilienceController> ctrl;
    if (!plan->empty()) {
      Span span(Layer::kFaultPlan);
      session.emplace(*plan, kAps, cseed);
      ctrl.emplace(kAps);
    }
    mac.seed = rng.next_u64();
    mac_op(loop, log_, mac.psdu_bytes, [&] {
      return net::run_jmb_mac_resilient(
          kAps, kClients, kClients, jmb_links, mac,
          session ? &*session : nullptr, ctrl ? &*ctrl : nullptr);
    });

    // Baseline: each client re-associates with its best surviving AP.
    std::vector<rvec> flat;  // one flat SNR vector per (client, AP)
    for (const auto& row : gains) {
      for (const double g : row) flat.emplace_back(phy::kNumDataCarriers, g);
    }
    const rvec outage(phy::kNumDataCarriers, 0.0);
    const net::MaskedLinkStateFn base_links =
        [&](std::size_t c, const std::vector<std::uint8_t>& up) {
          Span span(Layer::kLinkState);
          const rvec* best = &outage;
          double best_gain = 0.0;
          for (std::size_t a = 0; a < kAps; ++a) {
            if (a < up.size() && up[a] && gains[c][a] > best_gain) {
              best_gain = gains[c][a];
              best = &flat[c * kAps + a];
            }
          }
          log_.note(*best);
          return net::LinkState{*best};
        };
    std::optional<fault::FaultSession> base_session;
    if (!plan->empty()) {
      Span span(Layer::kFaultPlan);
      base_session.emplace(*plan, kAps, cseed);
    }
    mac.seed = rng.next_u64();
    mac_op(loop, log_, mac.psdu_bytes, [&] {
      return net::run_baseline_mac_resilient(
          kAps, kClients, base_links, mac,
          base_session ? &*base_session : nullptr);
    });
  }

  std::uint64_t seed_;
  std::size_t cycle_ = 0;
  LinkLog log_;
};

// ---------------------------------------------------------------------------
// sample_frames: the sample-level JmbSystem, 4 APs x 4 clients. Per case a
// fresh system (its own topology, oscillators and multipath), then
// measurement epochs each followed by joint frames at a fixed MCS. Frame
// lengths are drawn per frame, so the op-time percentiles sit on the spread
// of real work rather than on host jitter around one frame size. The
// untraced binary uses the public JmbSystem calls; the traced binary drives
// the five Stage::run bodies directly on the system's state, in the same
// order, so each stage gets its own span.

class SampleFrames final : public Workload {
 public:
  explicit SampleFrames(std::uint64_t seed)
      : seed_(seed), payload_(kClients), psdus_(kClients) {
    Rng rng(seed_);
    for (auto& p : payload_) {
      p.resize(kMaxPsduBytes);
      for (auto& b : p) b = static_cast<std::uint8_t>(rng.next_u64());
    }
  }

  void run_cycle(OpLoop& loop) override {
    for (std::size_t i = 0; i < kCases; ++i) run_case(i, loop);
    loop.end_cycle();
    ++cycle_;
  }

 private:
  static constexpr std::size_t kAps = 4;
  static constexpr std::size_t kClients = 4;
  static constexpr std::size_t kCases = 2;
  static constexpr std::size_t kEpochs = 2;
  static constexpr std::size_t kFramesPerEpoch = 8;
  static constexpr int kMinPsduBytes = 100;
  static constexpr int kMaxPsduBytes = 700;
  static constexpr double kSnrDb = 25.0;
  static constexpr double kSnrSpreadDb = 3.0;
  static constexpr phy::Mcs kMcs{phy::Modulation::kQpsk, phy::CodeRate::kHalf};

  void run_case(std::size_t i, OpLoop& loop) {
    const std::uint64_t cseed = case_seed(seed_, cycle_ * kCases + i);
    Rng rng(cseed);
    std::vector<std::vector<double>> gains(kClients, std::vector<double>(kAps));
    for (auto& row : gains) {
      for (double& g : row) {
        g = core::JmbSystem::gain_for_snr_db(
            kSnrDb + rng.uniform(-kSnrSpreadDb, kSnrSpreadDb), 1.0);
      }
    }
    core::SystemParams params;
    params.n_aps = kAps;
    params.n_clients = kClients;
    params.seed = cseed;
    std::optional<core::JmbSystem> sys;
    {
      Span span(Layer::kSystemBuild);
      sys.emplace(params, gains);
    }
    for (std::size_t e = 0; e < kEpochs; ++e) {
      const double t0 = sys->now();
      const bool ready = measure(*sys);
      loop.add_sim(sys->now() - t0);
      loop.fold(ready ? 1 : 0);
      if (!ready) continue;
      for (std::size_t f = 0; f < kFramesPerEpoch; ++f) {
        const auto len = static_cast<std::ptrdiff_t>(
            rng.uniform_int(kMinPsduBytes, kMaxPsduBytes));
        for (std::size_t c = 0; c < kClients; ++c) {
          psdus_[c].assign(payload_[c].begin(), payload_[c].begin() + len);
        }
        loop.op([&] {
          const double t1 = sys->now();
          const std::uint64_t allocs0 = alloc_total();
          const core::JointResult jr = joint(*sys);
          count(Count::kFrameAllocs,
                static_cast<double>(alloc_total() - allocs0));
          return OpOutcome{frame_digest(jr), sys->now() - t1};
        });
      }
    }
  }

  bool measure(core::JmbSystem& sys) {
    if constexpr (!kTraced) {
      return sys.run_measurement();
    } else {
      engine::SystemState& st = sys.state();
      engine::FrameContext frame(st);
      engine::StageContext ctx(frame);
      ++st.frame_seq;
      {
        Span span(Layer::kMeasure);
        engine::MeasurementStage().run(ctx);
      }
      if (!frame.measurement_ok) return false;
      {
        Span span(Layer::kPrecode);
        engine::PrecodeStage().run(ctx);
      }
      return st.precoder.has_value();
    }
  }

  core::JointResult joint(core::JmbSystem& sys) {
    if constexpr (!kTraced) {
      return sys.transmit_joint(psdus_, kMcs);
    } else {
      engine::SystemState& st = sys.state();
      if (!st.precoder) throw std::logic_error("joint: no precoder");
      std::vector<std::vector<cvec>> streams;
      {
        // JmbSystem::transmit_joint's stream preparation, verbatim.
        Span span(Layer::kEncode);
        streams.reserve(psdus_.size());
        std::size_t n_sym = 0;
        for (const auto& psdu : psdus_) {
          streams.push_back(st.tx.build_freq_symbols(psdu, kMcs));
          n_sym = std::max(n_sym, streams.back().size());
        }
        for (auto& s : streams) {
          while (s.size() < n_sym) s.emplace_back(phy::kNfft, cplx{});
        }
      }
      ++st.frame_seq;
      engine::FrameContext frame(st);
      frame.streams = &streams;
      engine::StageContext ctx(frame);
      {
        Span span(Layer::kSynthesis);
        engine::SynthesisStage().run(ctx);
      }
      {
        Span span(Layer::kPropagate);
        engine::PropagationStage().run(ctx);
      }
      {
        Span span(Layer::kDecode);
        engine::DecodeStage().run(ctx);
      }
      return std::move(frame.result);
    }
  }

  std::uint64_t frame_digest(const core::JointResult& jr) const {
    Digest d;
    d.add(jr.precoder_scale);
    d.add(static_cast<std::uint64_t>(jr.slaves_synced));
    count(Count::kFrames);
    for (std::size_t c = 0; c < jr.per_client.size(); ++c) {
      const phy::RxResult& r = jr.per_client[c];
      const bool crc_ok = r.ok && r.psdu == psdus_[c];
      count(Count::kClientFrames);
      count(Count::kClientFramesOk, crc_ok ? 1.0 : 0.0);
      d.add(static_cast<std::uint64_t>(crc_ok));
      d.add(static_cast<std::uint64_t>(r.header_ok));
      d.add(r.evm_snr_db);
      d.add_bytes(r.psdu.data(), r.psdu.size());
    }
    return d.value();
  }

  std::uint64_t seed_;
  std::size_t cycle_ = 0;
  std::vector<phy::ByteVec> payload_;  ///< per-client random bytes
  std::vector<phy::ByteVec> psdus_;    ///< the current frame's PSDUs
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "saturated_scaling") {
    return std::make_unique<SaturatedScaling>(seed);
  }
  if (name == "traffic_overload") return std::make_unique<TrafficOverload>(seed);
  if (name == "churn_failover") return std::make_unique<ChurnFailover>(seed);
  if (name == "sample_frames") return std::make_unique<SampleFrames>(seed);
  return nullptr;
}

}  // namespace perfbench
