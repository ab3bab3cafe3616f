#include "net/mac.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/injector.h"
#include "fault/resilience.h"
#include "rate/effective_snr.h"
#include "rate/per.h"

namespace jmb::net {

namespace {

constexpr std::size_t kLeadMissThreshold = 3;   ///< headerless slots: lead dead
constexpr std::size_t kMpduDelimiterBytes = 4;  ///< A-MPDU delimiter per MPDU

/// Per-(client, flow) accounting of a traffic-mode run; the map keys keep
/// the export order deterministic.
struct FlowAccum : FlowStats {
  double lat_sum = 0.0;
  double lat_sumsq = 0.0;
};

/// The MAC event loop. Four pieces parameterize it: the traffic source
/// (params.traffic, or the saturated round-robin fill), the masked link
/// state, the fault hooks (null = no-op), and the stream count and mode
/// (`joint`: JMB's epochs, lead and backhaul vs 802.11's one frame per
/// slot). DESIGN.md "MAC model: one loop" lists what each piece decides.
MacReport run_mac(std::size_t n_aps, std::size_t n_clients,
                  std::size_t n_streams, bool joint,
                  const MaskedLinkStateFn& link_state, const MacParams& params,
                  fault::FaultSession* fault = nullptr,
                  fault::ResilienceController* ctrl = nullptr) {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("MAC: ") + what);
  };
  require(std::isfinite(params.duration_s) && params.duration_s > 0.0,
          "MacParams::duration_s must be finite and > 0");
  require(n_aps > 0, "n_aps must be > 0");
  require(n_clients > 0, "n_clients must be > 0");
  require(n_streams > 0, "n_streams must be > 0");
  require(!joint || n_streams <= n_aps,
          "n_streams must be <= n_aps on a JMB run (zero-forcing serves at "
          "most one stream per transmitter)");
  require(!joint || params.coherence_time_s > 0.0,
          "MacParams::coherence_time_s must be > 0 on a JMB run");
  require(params.saturated || params.traffic != nullptr,
          "MacParams::saturated = false needs a MacParams::traffic source");
  // A negative or non-finite turnaround would run the clock backwards or
  // stall it.
  require(std::isfinite(params.airtime.turnaround_s) &&
              params.airtime.turnaround_s >= 0.0,
          "MacParams::airtime.turnaround_s must be finite and >= 0");

  // Traffic-source properties (DESIGN.md tabulates why each holds).
  TrafficSource* const src = params.traffic;
  Scheduler* const sched = src ? params.scheduler : nullptr;
  const std::size_t delimiter_bytes = src ? kMpduDelimiterBytes : 0;
  const bool drop_unreachable = !src && !joint;
  const std::size_t fill_budget =
      joint ? 4 * n_streams + (params.activity ? n_clients : 0) : n_clients;
  // Sync preamble + turnaround: the cost of a slot without data.
  const double idle_slot_s =
      static_cast<double>(phy::kPreambleLen) / phy::kSampleRateHz +
      params.airtime.turnaround_s;

  MacReport report;
  report.per_client.resize(n_clients);
  Rng rng(params.seed);
  DownlinkQueue queue;
  std::map<std::pair<std::size_t, std::uint32_t>, FlowAccum> flows;
  std::vector<std::size_t> client_bytes(n_clients, 0);
  std::uint64_t next_id = 0;
  std::size_t rr = 0;  // saturated fill's round-robin cursor

  double t = 0.0;
  double next_measurement = 0.0;
  const std::vector<double>& forced = params.remeasure_at;
  std::size_t next_forced = 0;  // cursor into `forced`
  std::size_t lead = 0;
  std::size_t lead_misses = 0;

  // Detect / recover latency samples, one per new quarantine or recovery.
  double detect_sum = 0.0;
  double recover_sum = 0.0;
  std::size_t recoveries = 0;
  const auto sample_latency = [&] {
    if (ctrl->quarantine_events() > report.quarantines) {
      report.quarantines = ctrl->quarantine_events();
      detect_sum += ctrl->last_detect_latency_s();
    }
    if (ctrl->recoveries() > recoveries) {
      recoveries = ctrl->recoveries();
      recover_sum += ctrl->last_recover_latency_s();
    }
  };

  // The APs the MAC believes are up: JMB trusts its controller (or the full
  // set); 802.11 clients re-associate with a surviving AP at once.
  std::vector<std::uint8_t> up(n_aps, 1);
  const auto believed_up = [&]() -> const std::vector<std::uint8_t>& {
    if (joint) return ctrl ? ctrl->active() : up;
    for (std::size_t a = 0; fault && a < n_aps; ++a) up[a] = !fault->ap_down(a);
    return up;
  };
  // Every link state this run prices goes through one memo: the pools
  // hand out the same states again and again, so each is priced ~once.
  rate::EffectiveSnrMemo memo;
  // Achievable PHY rate (Mb/s) for rate-aware policies.
  rate::EffectiveSnrs hint_link;
  const RateHintFn rate_hint = [&](std::size_t client) {
    hint_link.assign(link_state(client, believed_up()).subcarrier_snr, &memo);
    const auto r = rate::select_rate(hint_link);
    if (!r) return 0.0;
    return static_cast<double>(phy::rate_set()[*r].n_dbps()) *
           phy::kSampleRateHz / static_cast<double>(phy::kSymbolLen) / 1e6;
  };

  std::vector<std::size_t> picked;
  std::vector<Packet> mpdus;      // this slot's packets, stream by stream
  std::vector<std::size_t> ends;  // one past each stream's last MPDU
  std::vector<Packet> retry;
  std::vector<rate::EffectiveSnrs> links;

  while (t < params.duration_s) {
    if (fault) {
      const std::size_t applied = fault->events_applied();
      fault->advance_to(t);
      if (ctrl && fault->events_applied() != applied) {
        ctrl->note_fault(fault->last_fault_t());  // feeds detect latency
      }
    }
    if (src) {
      report.offered_packets += src->drain_until(t, queue);
      report.max_queue_depth =
          std::max(report.max_queue_depth, static_cast<double>(queue.size()));
    }

    if (joint) {
      std::size_t due = next_forced;  // forced remeasures now due
      while (due < forced.size() && forced[due] <= t) ++due;
      if (t >= next_measurement || due > next_forced ||
          (ctrl && ctrl->needs_remeasure())) {
        next_forced = due;
        const double meas = rate::measurement_airtime_s(n_aps, n_clients);
        t += meas;
        report.measurement_airtime_s += meas;
        ++report.measurement_epochs;
        next_measurement = t + params.coherence_time_s;
        if (params.on_measure) params.on_measure(report.measurement_epochs, t);
        if (ctrl) ctrl->on_remeasure(t);
        continue;
      }

      // Dead lead: headerless slots idle until a successor is elected.
      if (fault && fault->ap_down(lead)) {
        t += idle_slot_s;
        if (++lead_misses >= kLeadMissThreshold) {
          lead_misses = 0;
          std::size_t next = (lead + 1) % n_aps;  // naive, without controller
          if (ctrl) {
            ctrl->mark_down(lead, t);
            sample_latency();
            next = ctrl->elect_lead(lead);
          }
          if (!ctrl || (next < n_aps && next != lead)) {
            lead = next;
            ++report.lead_elections;
          }
        }
        continue;
      }
      lead_misses = 0;

      // Per-slave sync-header evidence for this slot.
      if (ctrl) {
        for (std::size_t a = 0; a < n_aps; ++a) {
          if (a == lead) continue;
          const bool ok =
              !fault || (!fault->ap_down(a) && !fault->sync_header_lost(a));
          const double residual =
              ok && fault ? std::abs(fault->sync_header_phase_error(a)) : 0.0;
          ctrl->on_sync_result(a, ok, residual, t);
        }
        sample_latency();
        if (ctrl->needs_remeasure()) continue;  // epoch first
      }
    }

    if (!src) {
      // Saturated fill; churned-out clients are skipped within the budget.
      const std::size_t target = joint ? n_streams : queue.size() + 1;
      for (std::size_t scans = 0;
           queue.size() < target && scans < fill_budget; ++scans) {
        const std::size_t client = rr++ % n_clients;
        if (params.activity && !params.activity(client, t)) continue;
        if (joint && fault && fault->backhaul_packet_lost()) {
          // Lost on the wire between gateway and APs; counted, not queued.
          ++report.backhaul_drops;
          ++report.per_client[client].dropped;
          continue;
        }
        queue.push({client, params.psdu_bytes, 0, t, 0, next_id++});
      }
    }
    if (joint && fault) t += fault->backhaul_delay_s();  // distribution stall

    if (queue.empty()) {
      // Idle: traffic jumps to its next event, the saturated fill a slot.
      double wake = src ? src->next_arrival_s() : t;
      if (src && joint) wake = std::min(wake, next_measurement);
      t = wake > t ? wake : t + idle_slot_s;
      continue;
    }

    // One stream per client: the policy's valid picks (FIFO when null),
    // each aggregating up to params.agg, or the oldest distinct clients.
    mpdus.clear();
    ends.clear();
    std::size_t frame_bytes = 0;  // largest stream incl. delimiters
    if (src) {
      picked.clear();
      const auto serve = [&](const std::vector<std::size_t>& candidates) {
        for (const std::size_t c : candidates) {
          if (picked.size() >= n_streams) break;
          if (c >= n_clients || queue.front_of(c) == nullptr ||
              std::find(picked.begin(), picked.end(), c) != picked.end()) {
            continue;  // invalid, idle or duplicate pick
          }
          picked.push_back(c);
          const std::size_t first = mpdus.size();
          const std::size_t bytes =
              queue.pop_aggregate_into(c, params.agg, mpdus);
          const std::size_t n = mpdus.size() - first;
          report.aggregated_mpdus += n - 1;
          frame_bytes = std::max(frame_bytes, bytes + delimiter_bytes * n);
          ends.push_back(mpdus.size());
        }
      };
      serve(sched ? sched->select(queue, n_streams, t, &rate_hint)
                  : queue.clients_fifo());
      // A misbehaving policy must not stall a backlogged queue.
      if (picked.empty()) serve(queue.clients_fifo());
    } else if (n_streams == 1) {
      mpdus.push_back(*queue.pop());  // the head alone: no joint pick
      ends.push_back(1);
      frame_bytes = mpdus[0].bytes;
    } else {
      for (const Packet& p : queue.pop_joint(n_streams)) {
        frame_bytes = std::max(frame_bytes, p.bytes);
        mpdus.push_back(p);
        ends.push_back(mpdus.size());
      }
    }
    if (joint) ++report.joint_transmissions;

    // Detection lag: a crashed AP still in the joint set ruins the frame.
    const std::vector<std::uint8_t>& mask = believed_up();
    bool reachable = true;
    for (std::size_t a = 0; joint && fault && a < n_aps; ++a) {
      reachable = reachable && !(mask[a] && fault->ap_down(a));
    }
    // Section 9: the effective channel is k*I, so every stream runs at the
    // worst client's rate; one unreachable client sinks the transmission.
    std::size_t rate_idx = phy::rate_set().size() - 1;
    links.resize(ends.size());
    for (std::size_t i = 0; reachable && i < ends.size(); ++i) {
      const std::size_t client = mpdus[i == 0 ? 0 : ends[i - 1]].client;
      links[i].assign(link_state(client, mask).subcarrier_snr, &memo);
      const std::optional<std::size_t> r = rate::select_rate(links[i]);
      reachable = r.has_value();
      rate_idx = std::min(rate_idx, r.value_or(rate_idx));
    }

    // An unreachable member or stale precoder burns base-rate airtime.
    const phy::Mcs& mcs = phy::rate_set()[reachable ? rate_idx : 0];
    const double airtime =
        joint ? rate::joint_frame_airtime_s(frame_bytes, mcs, params.airtime)
              : rate::frame_airtime_s(frame_bytes, mcs, phy::kSampleRateHz);
    t += airtime;
    if (reachable || src) report.data_airtime_s += airtime;

    // One delivery draw per MPDU (Section 9 streams, block-ACK MPDUs).
    retry.clear();
    bool all_delivered = true;
    for (std::size_t i = 0, k = 0; i < ends.size(); ++i) {
      const std::size_t client = mpdus[k].client;
      ClientStats& stats = report.per_client[client];
      std::size_t served_bytes = 0;
      for (; k < ends[i]; ++k) {
        const Packet& p = mpdus[k];
        const bool ok =
            reachable &&
            rate::delivered(links[i], rate_idx, p.bytes, rng.uniform());
        if (!ok) {
          all_delivered = false;
          ++stats.failed_attempts;
          if (!(drop_unreachable && !reachable) &&
              p.retries < params.max_retries) {
            retry.push_back(p);
          } else {
            ++stats.dropped;
            if (src) ++flows[{client, p.flow}].dropped;
          }
          continue;
        }
        ++stats.delivered;
        served_bytes += p.bytes;
        const double lat = t - p.enqueue_s;
        if (params.record_latency) report.frame_latency_s.push_back(lat);
        if (!src) continue;
        FlowAccum& a = flows[{client, p.flow}];
        ++a.delivered;
        a.delivered_bytes += p.bytes;
        a.lat_sum += lat;
        a.lat_sumsq += lat * lat;
        a.max_latency_s = std::max(a.max_latency_s, lat);
        a.deadline_misses += p.deadline_s > 0.0 && t > p.deadline_s;
      }
      client_bytes[client] += served_bytes;
      if (sched) {
        sched->on_served(client, static_cast<double>(served_bytes), airtime);
      }
    }
    if (sched) sched->on_slot(airtime);
    if (ctrl && all_delivered) {
      ctrl->on_recovered(t);
      sample_latency();
    }
    // Traffic re-queues in reverse, keeping each client's arrival order;
    // the saturated fill re-queues in stream order.
    if (src) std::reverse(retry.begin(), retry.end());
    for (const Packet& p : retry) queue.push_front(p);
  }

  if (fault) report.faults_injected = fault->events_applied();
  if (ctrl) sample_latency();
  const auto mean = [](double sum, std::size_t n) {
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  };
  report.mean_time_to_detect_s = mean(detect_sum, report.quarantines);
  report.mean_time_to_recover_s = mean(recover_sum, recoveries);
  for (const auto& [key, a] : flows) {
    FlowStats f = a;
    f.client = key.first;
    f.flow = key.second;
    f.goodput_mbps = static_cast<double>(f.delivered_bytes) * 8.0 /
                     params.duration_s / 1e6;
    if (f.delivered > 0) {
      const double n = static_cast<double>(f.delivered);
      f.mean_latency_s = a.lat_sum / n;
      const double var = a.lat_sumsq / n - f.mean_latency_s * f.mean_latency_s;
      f.jitter_s = var > 0.0 ? std::sqrt(var) : 0.0;
    }
    report.flows.push_back(f);
  }
  report.duration_s = params.duration_s;
  for (std::size_t c = 0; c < n_clients; ++c) {
    report.per_client[c].goodput_mbps = static_cast<double>(client_bytes[c]) *
                                        8.0 / params.duration_s / 1e6;
    report.total_goodput_mbps += report.per_client[c].goodput_mbps;
  }
  return report;
}

MaskedLinkStateFn ignore_mask(const LinkStateFn& link_state) {
  return [&link_state](std::size_t client, const std::vector<std::uint8_t>&) {
    return link_state(client);
  };
}

}  // namespace

MacReport run_baseline_mac(std::size_t n_clients, const LinkStateFn& link_state,
                           const MacParams& params) {
  return run_mac(1, n_clients, 1, false, ignore_mask(link_state), params);
}

MacReport run_jmb_mac(std::size_t n_aps, std::size_t n_clients,
                      std::size_t n_streams, const LinkStateFn& link_state,
                      const MacParams& params) {
  return run_mac(n_aps, n_clients, n_streams, true, ignore_mask(link_state),
                 params);
}

MacReport run_baseline_mac_resilient(std::size_t n_aps, std::size_t n_clients,
                                     const MaskedLinkStateFn& link_state,
                                     const MacParams& params,
                                     fault::FaultSession* fault) {
  return run_mac(n_aps, n_clients, 1, false, link_state, params, fault);
}

MacReport run_jmb_mac_resilient(std::size_t n_aps, std::size_t n_clients,
                                std::size_t n_streams,
                                const MaskedLinkStateFn& link_state,
                                const MacParams& params,
                                fault::FaultSession* fault,
                                fault::ResilienceController* resilience) {
  return run_mac(n_aps, n_clients, n_streams, true, link_state, params, fault,
                 resilience);
}

}  // namespace jmb::net
