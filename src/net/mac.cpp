#include "net/mac.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <utility>

#include "fault/injector.h"
#include "fault/resilience.h"
#include "net/scheduler.h"
#include "rate/effective_snr.h"
#include "rate/per.h"

namespace jmb::net {

namespace {

/// Airtime of a slot that carries no data (sync preamble + turnaround):
/// what an idle or headerless slot costs.
double idle_slot_s(const MacParams& params) {
  return static_cast<double>(phy::kPreambleLen) /
             params.airtime.sample_rate_hz +
         params.airtime.turnaround_s;
}

/// Latency sample on delivery, when the caller asked for them.
void note_delivery(MacReport& report, const MacParams& params, const Packet& p,
                   double t) {
  if (params.record_latency) report.frame_latency_s.push_back(t - p.enqueue_s);
}

void finalize(MacReport& report, const MacParams& params) {
  report.duration_s = params.duration_s;
  report.total_goodput_mbps = 0.0;
  for (ClientStats& c : report.per_client) {
    c.goodput_mbps = static_cast<double>(c.delivered) *
                     static_cast<double>(params.psdu_bytes) * 8.0 /
                     params.duration_s / 1e6;
    report.total_goodput_mbps += c.goodput_mbps;
  }
}

/// Advance the fault timeline to virtual time t and forward new injection
/// edges to the controller's latency bookkeeping.
void pump_mac_faults(fault::FaultSession* fault,
                     fault::ResilienceController* ctrl, double t) {
  if (!fault) return;
  const std::size_t before = fault->events_applied();
  fault->advance_to(t);
  if (ctrl && fault->events_applied() != before) {
    ctrl->note_fault(fault->last_fault_t());
  }
}

/// Tracks the controller's quarantine / recovery counters across the run
/// and folds each new latency sample into running means.
struct LatencyAccumulator {
  std::size_t seen_quarantines = 0;
  std::size_t seen_recoveries = 0;
  double detect_sum = 0.0;
  double recover_sum = 0.0;

  void sample(const fault::ResilienceController& ctrl) {
    if (ctrl.quarantine_events() > seen_quarantines) {
      seen_quarantines = ctrl.quarantine_events();
      detect_sum += ctrl.last_detect_latency_s();
    }
    if (ctrl.recoveries() > seen_recoveries) {
      seen_recoveries = ctrl.recoveries();
      recover_sum += ctrl.last_recover_latency_s();
    }
  }
  void fold_into(MacReport& report) const {
    report.quarantines = seen_quarantines;
    if (seen_quarantines > 0) {
      report.mean_time_to_detect_s =
          detect_sum / static_cast<double>(seen_quarantines);
    }
    if (seen_recoveries > 0) {
      report.mean_time_to_recover_s =
          recover_sum / static_cast<double>(seen_recoveries);
    }
  }
};

/// A-MPDU delimiter overhead charged per aggregated subframe.
constexpr std::size_t kMpduDelimiterBytes = 4;

/// Rate selection per Section 9: the APs know the full channel and the
/// effective channel is k*I, so every stream of a joint transmission runs
/// at one rate, the worst client's. Queries the `n` streams' link states
/// in order into `links` (reused across slots; a stream's PER draws then
/// reuse its evaluation) and stops at the first unreachable client, whose
/// nullopt sinks the whole transmission.
template <class Query>
std::optional<std::size_t> common_rate(std::vector<rate::EffectiveSnrs>& links,
                                       std::size_t n, Query&& link_snr) {
  links.resize(n);
  std::optional<std::size_t> rate_idx;
  for (std::size_t i = 0; i < n; ++i) {
    links[i].assign(link_snr(i));
    const auto r = rate::select_rate(links[i]);
    if (!r) return std::nullopt;
    if (!rate_idx || *r < *rate_idx) rate_idx = r;
  }
  return rate_idx;
}

/// Accumulates per-(client, flow) delivery statistics for traffic-mode
/// runs. std::map keys keep the export order deterministic.
class FlowTracker {
 public:
  void deliver(const Packet& p, double t) {
    Accum& a = acc_[{p.client, p.flow}];
    ++a.delivered;
    a.bytes += p.bytes;
    const double lat = t - p.enqueue_s;
    a.lat_sum += lat;
    a.lat_sumsq += lat * lat;
    a.lat_max = std::max(a.lat_max, lat);
    if (p.deadline_s > 0.0 && t > p.deadline_s) ++a.misses;
  }
  void drop(const Packet& p) { ++acc_[{p.client, p.flow}].dropped; }

  void fold_into(MacReport& report, double duration_s) const {
    report.flows.reserve(acc_.size());
    for (const auto& [key, a] : acc_) {
      FlowStats f;
      f.client = key.first;
      f.flow = key.second;
      f.delivered = a.delivered;
      f.dropped = a.dropped;
      f.deadline_misses = a.misses;
      f.delivered_bytes = a.bytes;
      f.goodput_mbps =
          static_cast<double>(a.bytes) * 8.0 / duration_s / 1e6;
      if (a.delivered > 0) {
        const double n = static_cast<double>(a.delivered);
        f.mean_latency_s = a.lat_sum / n;
        f.max_latency_s = a.lat_max;
        const double var =
            a.lat_sumsq / n - f.mean_latency_s * f.mean_latency_s;
        f.jitter_s = var > 0.0 ? std::sqrt(var) : 0.0;
      }
      report.flows.push_back(f);
    }
  }

 private:
  struct Accum {
    std::size_t delivered = 0;
    std::size_t dropped = 0;
    std::size_t misses = 0;
    std::size_t bytes = 0;
    double lat_sum = 0.0;
    double lat_sumsq = 0.0;
    double lat_max = 0.0;
  };
  std::map<std::pair<std::size_t, std::uint32_t>, Accum> acc_;
};

/// Goodput from actual delivered bytes — traffic-mode packets are not all
/// params.psdu_bytes, so the legacy delivered-count finalize() would lie.
void finalize_traffic(MacReport& report, const MacParams& params,
                      const std::vector<double>& client_bytes) {
  report.duration_s = params.duration_s;
  report.total_goodput_mbps = 0.0;
  for (std::size_t c = 0; c < report.per_client.size(); ++c) {
    report.per_client[c].goodput_mbps =
        client_bytes[c] * 8.0 / params.duration_s / 1e6;
    report.total_goodput_mbps += report.per_client[c].goodput_mbps;
  }
}

/// Traffic-mode MAC: arrivals come from params.traffic instead of the
/// synthetic saturated fill, a Scheduler (null = FIFO) picks which clients
/// each slot serves, and each selected client may aggregate several queued
/// packets into its stream (params.agg). `jmb` toggles joint transmissions
/// plus measurement epochs versus one-client-at-a-time 802.11.
MacReport run_traffic_mac(std::size_t n_aps, std::size_t n_clients,
                          std::size_t n_streams,
                          const LinkStateFn& link_state,
                          const MacParams& params, bool jmb) {
  MacReport report;
  report.per_client.resize(n_clients);
  Rng rng(params.seed);
  DownlinkQueue queue;
  TrafficSource& src = *params.traffic;
  FlowTracker flows;
  std::vector<double> client_bytes(n_clients, 0.0);

  // Achievable-rate hint for rate-aware policies: the PHY rate the client
  // would get right now, in Mb/s.
  const RateHintFn rate_hint = [&](std::size_t client) {
    rate::EffectiveSnrs link(link_state(client).subcarrier_snr);
    const auto r = rate::select_rate(link);
    if (!r) return 0.0;
    return static_cast<double>(phy::rate_set()[*r].n_dbps()) *
           params.airtime.sample_rate_hz /
           static_cast<double>(phy::kSymbolLen) / 1e6;
  };

  double t = 0.0;
  double next_measurement = 0.0;  // JMB only
  std::size_t next_forced = 0;    // cursor into params.remeasure_at

  std::vector<std::size_t> picked;
  std::vector<std::uint8_t> taken(n_clients, 0);
  std::vector<rate::EffectiveSnrs> links;

  while (t < params.duration_s) {
    report.offered_packets += src.drain_until(t, queue);
    report.max_queue_depth =
        std::max(report.max_queue_depth, static_cast<double>(queue.size()));

    if (jmb) {
      const bool forced = next_forced < params.remeasure_at.size() &&
                          params.remeasure_at[next_forced] <= t;
      if (t >= next_measurement || forced) {
        while (next_forced < params.remeasure_at.size() &&
               params.remeasure_at[next_forced] <= t) {
          ++next_forced;
        }
        const double meas =
            rate::measurement_airtime_s(n_aps, n_clients, params.airtime);
        t += meas;
        report.measurement_airtime_s += meas;
        ++report.measurement_epochs;
        next_measurement = t + params.coherence_time_s;
        if (params.on_measure) params.on_measure(report.measurement_epochs, t);
        continue;
      }
    }

    if (queue.empty()) {
      // Idle: jump the clock to the next event. drain_until guarantees
      // next_arrival_s() > t, so this always makes progress.
      double next_t = src.next_arrival_s();
      if (jmb) next_t = std::min(next_t, next_measurement);
      if (!(next_t > t)) next_t = t + idle_slot_s(params);
      if (next_t >= params.duration_s) break;
      t = next_t;
      continue;
    }

    // --- user selection (Scheduler policy; null = FIFO order) ---
    std::vector<std::size_t> selected;
    if (params.scheduler) {
      selected = params.scheduler->select(queue, n_streams, t, &rate_hint);
    } else {
      selected = queue.clients_fifo();
    }
    picked.clear();
    std::fill(taken.begin(), taken.end(), 0);
    for (std::size_t c : selected) {
      if (picked.size() >= n_streams) break;
      if (c >= n_clients || taken[c] || queue.front_of(c) == nullptr) continue;
      taken[c] = 1;
      picked.push_back(c);
    }
    if (picked.empty()) {
      // A misbehaving policy must not stall a backlogged queue.
      for (std::size_t c : queue.clients_fifo()) {
        if (picked.size() >= n_streams) break;
        picked.push_back(c);
      }
    }

    std::vector<AggFrame> frames;
    frames.reserve(picked.size());
    std::size_t frame_bytes = 0;  // largest stream incl. delimiters
    for (std::size_t c : picked) {
      AggFrame f = queue.pop_aggregate(c, params.agg);
      if (f.mpdus.empty()) continue;
      report.aggregated_mpdus += f.mpdus.size() - 1;
      frame_bytes =
          std::max(frame_bytes,
                   f.total_bytes + kMpduDelimiterBytes * f.mpdus.size());
      frames.push_back(std::move(f));
    }
    if (frames.empty()) continue;
    if (jmb) ++report.joint_transmissions;

    const std::optional<std::size_t> rate_idx =
        common_rate(links, frames.size(), [&](std::size_t i) {
          return link_state(frames[i].client).subcarrier_snr;
        });

    // Unreachable member: the attempt burns base-rate airtime, all fail.
    const phy::Mcs& mcs = phy::rate_set()[rate_idx.value_or(0)];
    const double airtime =
        jmb ? rate::joint_frame_airtime_s(frame_bytes, mcs, params.airtime)
            : rate::frame_airtime_s(frame_bytes, mcs,
                                    params.airtime.sample_rate_hz);
    t += airtime;
    report.data_airtime_s += airtime;

    // Losses decoupled per stream; within a stream each MPDU gets its own
    // delivery draw (block-ACK semantics: an A-MPDU can partially fail).
    std::vector<Packet> requeue;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      AggFrame& f = frames[i];
      double served_bytes = 0.0;
      for (Packet& p : f.mpdus) {
        const bool ok =
            rate_idx &&
            rng.uniform() >=
                rate::frame_error_prob(links[i], *rate_idx, p.bytes);
        if (ok) {
          ++report.per_client[p.client].delivered;
          client_bytes[p.client] += static_cast<double>(p.bytes);
          served_bytes += static_cast<double>(p.bytes);
          flows.deliver(p, t);
          note_delivery(report, params, p, t);
        } else {
          ++report.per_client[p.client].failed_attempts;
          if (p.retries < params.max_retries) {
            requeue.push_back(p);
          } else {
            ++report.per_client[p.client].dropped;
            flows.drop(p);
          }
        }
      }
      if (params.scheduler) {
        params.scheduler->on_served(f.client, served_bytes, airtime);
      }
    }
    if (params.scheduler) params.scheduler->on_slot(airtime);
    // push_front in reverse batch order keeps each client's failed MPDUs
    // in their original arrival order at the front of its subqueue.
    for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) {
      queue.push_front(*it);
    }
  }
  flows.fold_into(report, params.duration_s);
  finalize_traffic(report, params, client_bytes);
  return report;
}

}  // namespace

MacReport run_baseline_mac(std::size_t n_clients, const LinkStateFn& link_state,
                           const MacParams& params) {
  if (params.traffic) {
    return run_traffic_mac(1, n_clients, 1, link_state, params,
                           /*jmb=*/false);
  }
  MacReport report;
  report.per_client.resize(n_clients);
  Rng rng(params.seed);
  double t = 0.0;
  std::size_t turn = 0;  // equal medium share: round-robin over clients

  DownlinkQueue queue;
  std::uint64_t next_id = 0;

  while (t < params.duration_s) {
    if (params.saturated) {
      // With churn, skip clients currently detached from the cell; the
      // scan is bounded by one full round-robin sweep.
      std::size_t scanned = 0;
      if (params.activity) {
        while (scanned < n_clients && !params.activity(turn % n_clients, t)) {
          ++turn;
          ++scanned;
        }
      }
      if (scanned < n_clients) {
        queue.push({turn % n_clients, params.psdu_bytes, 0, t, 0, next_id++});
        ++turn;
      }
    }
    auto pkt = queue.pop();
    if (!pkt) {
      if (params.saturated && params.activity) {
        // Cell momentarily empty: idle the slot, users may arrive later.
        t += idle_slot_s(params);
        continue;
      }
      break;  // non-saturated mode with an empty queue: done
    }

    rate::EffectiveSnrs link(link_state(pkt->client).subcarrier_snr);
    const auto rate_idx = rate::select_rate(link);
    if (!rate_idx) {
      // Client out of range: attempt at base rate fails; count and move on.
      t += rate::frame_airtime_s(pkt->bytes, phy::rate_set()[0],
                                 params.airtime.sample_rate_hz);
      ++report.per_client[pkt->client].failed_attempts;
      ++report.per_client[pkt->client].dropped;
      continue;
    }
    const phy::Mcs& mcs = phy::rate_set()[*rate_idx];
    const double airtime =
        rate::frame_airtime_s(pkt->bytes, mcs, params.airtime.sample_rate_hz);
    t += airtime;
    report.data_airtime_s += airtime;

    const double per = rate::frame_error_prob(link, *rate_idx, pkt->bytes);
    if (rng.uniform() >= per) {
      ++report.per_client[pkt->client].delivered;
      note_delivery(report, params, *pkt, t);
    } else {
      ++report.per_client[pkt->client].failed_attempts;
      if (pkt->retries < params.max_retries) {
        queue.push_front(*pkt);
      } else {
        ++report.per_client[pkt->client].dropped;
      }
    }
  }
  finalize(report, params);
  return report;
}

MacReport run_jmb_mac(std::size_t n_aps, std::size_t n_clients,
                      std::size_t n_streams, const LinkStateFn& link_state,
                      const MacParams& params) {
  if (params.traffic) {
    return run_traffic_mac(n_aps, n_clients, n_streams, link_state, params,
                           /*jmb=*/true);
  }
  MacReport report;
  report.per_client.resize(n_clients);
  Rng rng(params.seed);
  DownlinkQueue queue;
  std::uint64_t next_id = 0;
  std::size_t rr = 0;

  double t = 0.0;
  double next_measurement = 0.0;
  std::size_t next_forced = 0;  // cursor into params.remeasure_at
  std::vector<rate::EffectiveSnrs> links;

  while (t < params.duration_s) {
    const bool forced = next_forced < params.remeasure_at.size() &&
                        params.remeasure_at[next_forced] <= t;
    if (t >= next_measurement || forced) {
      while (next_forced < params.remeasure_at.size() &&
             params.remeasure_at[next_forced] <= t) {
        ++next_forced;
      }
      const double meas =
          rate::measurement_airtime_s(n_aps, n_clients, params.airtime);
      t += meas;
      report.measurement_airtime_s += meas;
      ++report.measurement_epochs;
      next_measurement = t + params.coherence_time_s;
      if (params.on_measure) params.on_measure(report.measurement_epochs, t);
      continue;
    }
    if (params.saturated) {
      // Keep the queue deep enough for a full joint transmission. With
      // churn, detached clients are skipped and the scan is bounded by a
      // full round-robin sweep on top of the fill budget.
      const std::size_t max_scans =
          n_streams + (params.activity ? n_clients : 0);
      std::size_t scans = 0;
      while (queue.size() < n_streams && scans < max_scans) {
        ++scans;
        const std::size_t client = rr % n_clients;
        ++rr;
        if (params.activity && !params.activity(client, t)) continue;
        queue.push({client, params.psdu_bytes, 0, t, 0, next_id++});
      }
    }
    std::vector<Packet> batch = queue.pop_joint(n_streams);
    if (batch.empty()) {
      if (params.saturated && params.activity) {
        // Cell momentarily empty: idle the slot, users may arrive later.
        t += idle_slot_s(params);
        continue;
      }
      break;
    }
    ++report.joint_transmissions;

    const std::optional<std::size_t> rate_idx =
        common_rate(links, batch.size(), [&](std::size_t i) {
          return link_state(batch[i].client).subcarrier_snr;
        });
    if (!rate_idx) {
      // Someone unreachable: attempt costs base-rate airtime; all fail.
      t += rate::joint_frame_airtime_s(params.psdu_bytes, phy::rate_set()[0],
                                       params.airtime);
      for (Packet& p : batch) {
        ++report.per_client[p.client].failed_attempts;
        if (p.retries < params.max_retries) {
          queue.push_front(p);
        } else {
          ++report.per_client[p.client].dropped;
        }
      }
      continue;
    }

    const phy::Mcs& mcs = phy::rate_set()[*rate_idx];
    const double airtime =
        rate::joint_frame_airtime_s(params.psdu_bytes, mcs, params.airtime);
    t += airtime;
    report.data_airtime_s += airtime;

    // Losses are decoupled across clients (Section 9): each stream succeeds
    // or fails on its own effective SNR.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Packet& p = batch[i];
      const double per = rate::frame_error_prob(links[i], *rate_idx, p.bytes);
      if (rng.uniform() >= per) {
        ++report.per_client[p.client].delivered;
        note_delivery(report, params, p, t);
      } else {
        ++report.per_client[p.client].failed_attempts;
        if (p.retries < params.max_retries) {
          queue.push_front(p);
        } else {
          ++report.per_client[p.client].dropped;
        }
      }
    }
  }
  finalize(report, params);
  return report;
}

MacReport run_baseline_mac_resilient(std::size_t n_aps, std::size_t n_clients,
                                     const MaskedLinkStateFn& link_state,
                                     const MacParams& params,
                                     fault::FaultSession* fault) {
  MacReport report;
  report.per_client.resize(n_clients);
  Rng rng(params.seed);
  double t = 0.0;
  std::size_t turn = 0;

  DownlinkQueue queue;
  std::uint64_t next_id = 0;
  std::vector<std::uint8_t> up(n_aps, 1);

  while (t < params.duration_s) {
    pump_mac_faults(fault, nullptr, t);
    for (std::size_t a = 0; a < n_aps; ++a) {
      up[a] = (fault && fault->ap_down(a)) ? 0 : 1;
    }
    if (params.saturated) {
      std::size_t scanned = 0;
      if (params.activity) {
        while (scanned < n_clients && !params.activity(turn % n_clients, t)) {
          ++turn;
          ++scanned;
        }
      }
      if (scanned < n_clients) {
        queue.push({turn % n_clients, params.psdu_bytes, 0, t, 0, next_id++});
        ++turn;
      }
    }
    auto pkt = queue.pop();
    if (!pkt) {
      if (params.saturated && params.activity) {
        t += idle_slot_s(params);
        continue;
      }
      break;
    }

    // Each client transmits from its best *surviving* AP — the mask makes
    // the link model re-associate instantly, the per-AP independence that
    // 802.11 keeps and joint transmission gives up.
    rate::EffectiveSnrs link(link_state(pkt->client, up).subcarrier_snr);
    const auto rate_idx = rate::select_rate(link);
    if (!rate_idx) {
      t += rate::frame_airtime_s(pkt->bytes, phy::rate_set()[0],
                                 params.airtime.sample_rate_hz);
      ++report.per_client[pkt->client].failed_attempts;
      ++report.per_client[pkt->client].dropped;
      continue;
    }
    const phy::Mcs& mcs = phy::rate_set()[*rate_idx];
    const double airtime =
        rate::frame_airtime_s(pkt->bytes, mcs, params.airtime.sample_rate_hz);
    t += airtime;
    report.data_airtime_s += airtime;

    const double per = rate::frame_error_prob(link, *rate_idx, pkt->bytes);
    if (rng.uniform() >= per) {
      ++report.per_client[pkt->client].delivered;
      note_delivery(report, params, *pkt, t);
    } else {
      ++report.per_client[pkt->client].failed_attempts;
      if (pkt->retries < params.max_retries) {
        queue.push_front(*pkt);
      } else {
        ++report.per_client[pkt->client].dropped;
      }
    }
  }
  if (fault) report.faults_injected = fault->events_applied();
  finalize(report, params);
  return report;
}

MacReport run_jmb_mac_resilient(std::size_t n_aps, std::size_t n_clients,
                                std::size_t n_streams,
                                const MaskedLinkStateFn& link_state,
                                const MacParams& params,
                                fault::FaultSession* fault,
                                fault::ResilienceController* resilience) {
  MacReport report;
  report.per_client.resize(n_clients);
  Rng rng(params.seed);
  DownlinkQueue queue;
  std::uint64_t next_id = 0;
  std::size_t rr = 0;

  double t = 0.0;
  double next_measurement = 0.0;
  std::size_t lead = 0;
  std::size_t lead_misses = 0;
  LatencyAccumulator latency;
  std::vector<std::uint8_t> all_active(n_aps, 1);

  // The joint set the MAC *believes* in: the controller's surviving APs,
  // or everyone when no controller is attached.
  const auto believed = [&]() -> const std::vector<std::uint8_t>& {
    return resilience ? resilience->active() : all_active;
  };

  std::size_t next_forced = 0;  // cursor into params.remeasure_at
  std::vector<rate::EffectiveSnrs> links;

  while (t < params.duration_s) {
    pump_mac_faults(fault, resilience, t);

    const bool forced = next_forced < params.remeasure_at.size() &&
                        params.remeasure_at[next_forced] <= t;
    if (t >= next_measurement || forced ||
        (resilience && resilience->needs_remeasure())) {
      while (next_forced < params.remeasure_at.size() &&
             params.remeasure_at[next_forced] <= t) {
        ++next_forced;
      }
      const double meas =
          rate::measurement_airtime_s(n_aps, n_clients, params.airtime);
      t += meas;
      report.measurement_airtime_s += meas;
      ++report.measurement_epochs;
      next_measurement = t + params.coherence_time_s;
      if (params.on_measure) params.on_measure(report.measurement_epochs, t);
      if (resilience) resilience->on_remeasure(t);
      continue;
    }

    // Lead liveness: a dead lead means no sync headers at all. After
    // lead_miss_threshold headerless slots the MAC declares it down and
    // elects the lowest-indexed surviving AP.
    const bool lead_down = fault && fault->ap_down(lead);
    if (lead_down) {
      // A headerless slot costs the sync-header + turnaround airtime the
      // slaves spent waiting for a transmission that never came.
      t += static_cast<double>(phy::kPreambleLen) /
               params.airtime.sample_rate_hz +
           params.airtime.turnaround_s;
      if (++lead_misses >= params.lead_miss_threshold) {
        if (resilience) {
          resilience->mark_down(lead, t);
          latency.sample(*resilience);
          const std::size_t next_lead = resilience->elect_lead(lead);
          if (next_lead < n_aps && next_lead != lead) {
            lead = next_lead;
            ++report.lead_elections;
          }
        } else {
          // No controller: naive failover to the next AP index.
          lead = (lead + 1) % n_aps;
          ++report.lead_elections;
        }
        lead_misses = 0;
      }
      continue;
    }
    lead_misses = 0;

    // Per-slave sync-header evidence for this slot.
    if (resilience) {
      for (std::size_t a = 0; a < n_aps; ++a) {
        if (a == lead) continue;
        const bool down = fault && fault->ap_down(a);
        const bool lost = !down && fault && fault->sync_header_lost(a);
        const double residual =
            (!down && !lost && fault)
                ? std::abs(fault->sync_header_phase_error(a))
                : 0.0;
        resilience->on_sync_result(a, !down && !lost, residual, 0.0, t);
      }
      latency.sample(*resilience);
      if (resilience->needs_remeasure()) continue;  // epoch first
    }

    if (params.saturated) {
      const std::size_t max_attempts =
          4 * n_streams + (params.activity ? n_clients : 0);
      std::size_t attempts = 0;
      while (queue.size() < n_streams && attempts < max_attempts) {
        ++attempts;
        const std::size_t client = rr % n_clients;
        ++rr;
        if (params.activity && !params.activity(client, t)) continue;
        if (fault && fault->backhaul_packet_lost()) {
          // Lost on the wire between gateway and APs; counted, not queued.
          ++report.backhaul_drops;
          ++report.per_client[client].dropped;
          continue;
        }
        queue.push({client, params.psdu_bytes, 0, t, 0, next_id++});
      }
    }
    if (fault) t += fault->backhaul_delay_s();  // distribution stall

    std::vector<Packet> batch = queue.pop_joint(n_streams);
    if (batch.empty()) {
      if (params.saturated) {
        // The backhaul ate every candidate packet: the slot idles while
        // the queue refills. Charge the idle slot so time always advances
        // (a 100%-loss window must not hang the simulation).
        t += static_cast<double>(phy::kPreambleLen) /
                 params.airtime.sample_rate_hz +
             params.airtime.turnaround_s;
        continue;
      }
      break;
    }
    ++report.joint_transmissions;

    // Detection lag is where joint transmission pays: an AP that crashed
    // but is still believed active leaves a dead row in the precoder and
    // the whole joint frame is ruined.
    bool stale_member = false;
    if (fault) {
      for (std::size_t a = 0; a < n_aps; ++a) {
        if (believed()[a] && fault->ap_down(a)) stale_member = true;
      }
    }

    std::optional<std::size_t> rate_idx;
    if (!stale_member) {
      rate_idx = common_rate(links, batch.size(), [&](std::size_t i) {
        return link_state(batch[i].client, believed()).subcarrier_snr;
      });
    }
    if (stale_member || !rate_idx) {
      t += rate::joint_frame_airtime_s(params.psdu_bytes, phy::rate_set()[0],
                                       params.airtime);
      for (Packet& p : batch) {
        ++report.per_client[p.client].failed_attempts;
        if (p.retries < params.max_retries) {
          queue.push_front(p);
        } else {
          ++report.per_client[p.client].dropped;
        }
      }
      continue;
    }

    const phy::Mcs& mcs = phy::rate_set()[*rate_idx];
    const double airtime =
        rate::joint_frame_airtime_s(params.psdu_bytes, mcs, params.airtime);
    t += airtime;
    report.data_airtime_s += airtime;

    bool all_delivered = true;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Packet& p = batch[i];
      const double per = rate::frame_error_prob(links[i], *rate_idx, p.bytes);
      if (rng.uniform() >= per) {
        ++report.per_client[p.client].delivered;
        note_delivery(report, params, p, t);
      } else {
        all_delivered = false;
        ++report.per_client[p.client].failed_attempts;
        if (p.retries < params.max_retries) {
          queue.push_front(p);
        } else {
          ++report.per_client[p.client].dropped;
        }
      }
    }
    if (resilience && all_delivered) {
      resilience->on_recovered(t);
      latency.sample(*resilience);
    }
  }
  if (fault) report.faults_injected = fault->events_applied();
  if (resilience) latency.sample(*resilience);
  latency.fold_into(report);
  finalize(report, params);
  return report;
}

}  // namespace jmb::net
