// Link-layer simulations: the 802.11 equal-share baseline and the JMB MAC
// (shared queue, lead election, joint transmissions, channel-measurement
// epochs, asynchronous ACKs with retransmission).
//
// All four entry points run one event loop (mac.cpp). It is parameterized
// by the traffic source (MacParams::traffic, or a saturated round-robin
// fill), the link-state callback, the fault/resilience hooks, and the
// stream count and mode (802.11: one stream, no epochs; JMB: n_streams,
// joint airtime, measurement epochs). DESIGN.md "MAC model: one loop"
// lists which behaviours each piece decides.
//
// Channel state enters through a callback so these simulations compose
// with either the closed-form LinkModel or measurements from the
// sample-level system.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dsp/rng.h"
#include "net/queue.h"
#include "net/traffic_api.h"
#include "rate/airtime.h"

namespace jmb::fault {
class FaultSession;
class ResilienceController;
}  // namespace jmb::fault

namespace jmb::net {

/// Per-client link state for one upcoming transmission.
struct LinkState {
  /// post-equalization (baseline) or post-beamforming (JMB)
  rvec subcarrier_snr;
};

/// client index -> link state at the current instant.
using LinkStateFn = std::function<LinkState(std::size_t client)>;

/// client index + the set of APs currently participating (1 = active) ->
/// link state. Lets the closed-form link model price in the SNR drop when
/// the joint set shrinks after a crash or quarantine.
using MaskedLinkStateFn = std::function<LinkState(
    std::size_t client, const std::vector<std::uint8_t>& active_aps)>;

/// Churn/mobility hook: is `client` attached to this cell at virtual time
/// t? The saturated fill skips detached clients (no traffic is generated
/// for them) and idles when the cell is momentarily empty. A null
/// ActivityFn means "everyone, always".
using ActivityFn = std::function<bool(std::size_t client, double t)>;

/// Every entry point validates its inputs and throws std::invalid_argument
/// naming the field: duration_s must be finite and > 0, n_aps, n_clients
/// and n_streams > 0, coherence_time_s > 0 on a JMB run, and
/// saturated = false needs a traffic source. Of `airtime`,
/// sample_rate_hz must be finite and > 0, turnaround_s finite and >= 0,
/// and feedback_rate_index < rate_set().size().
struct MacParams {
  double duration_s = 1.0;
  std::size_t psdu_bytes = 1500;
  double coherence_time_s = 0.25;  ///< measurement epoch spacing for JMB
  int max_retries = 10;
  rate::AirtimeParams airtime;
  std::uint64_t seed = 1;
  /// Implied by `traffic`: a run is saturated exactly when it has no
  /// traffic source. Read only by validation (false without a source is
  /// an error); kept because existing callers assign it.
  bool saturated = true;

  /// Null = every client always attached. Saturated runs only.
  ActivityFn activity;
  /// Forced re-measurement instants (sorted ascending): a hand-off into
  /// the cell requires measuring the newcomer's channel outside the
  /// regular coherence cadence. JMB runs only; empty = none.
  std::vector<double> remeasure_at;
  /// Record per-frame delivery latency (enqueue -> ACK) samples into
  /// MacReport::frame_latency_s.
  bool record_latency = false;

  /// Packet arrival process replacing the saturated round-robin fill.
  /// Null = every client always backlogged with psdu_bytes packets.
  /// Non-owning; must outlive the run and is mutated by it (arrivals are
  /// consumed).
  TrafficSource* traffic = nullptr;
  /// User-selection policy for traffic-mode runs. Null = FIFO (the
  /// pop_joint order). Non-owning; mutated by per-slot feedback.
  Scheduler* scheduler = nullptr;
  /// A-MPDU-style aggregation budget per client per transmission in
  /// traffic mode. The default (1 frame) sends one packet per client.
  AggLimits agg;

  /// Called at every measurement epoch (regular cadence and forced
  /// remeasures alike) with the running epoch count and the virtual time,
  /// right as the fresh snapshot lands. The CSI-impairment sweeps use it
  /// to reset channel staleness in step with the MAC's own coherence
  /// cadence. Null = no callback.
  std::function<void(std::size_t epoch, double t)> on_measure;
};

struct ClientStats {
  std::size_t delivered = 0;
  std::size_t failed_attempts = 0;
  std::size_t dropped = 0;
  double goodput_mbps = 0.0;
};

/// Per-flow delivery accounting for traffic-mode runs (one entry per
/// (client, flow) pair that generated at least one packet, ordered by
/// client then flow so exports are deterministic).
struct FlowStats {
  std::size_t client = 0;
  std::uint32_t flow = 0;
  std::size_t delivered = 0;
  std::size_t dropped = 0;
  std::size_t deadline_misses = 0;  ///< delivered after Packet::deadline_s
  std::size_t delivered_bytes = 0;
  double goodput_mbps = 0.0;       ///< delivered_bytes over the run duration
  double mean_latency_s = 0.0;     ///< enqueue -> ACK, delivered packets
  double max_latency_s = 0.0;
  double jitter_s = 0.0;  ///< stddev of delivery latency
};

struct MacReport {
  std::vector<ClientStats> per_client;
  double total_goodput_mbps = 0.0;
  double data_airtime_s = 0.0;
  double measurement_airtime_s = 0.0;
  double duration_s = 0.0;
  std::size_t joint_transmissions = 0;  ///< 0 for the baseline
  std::size_t measurement_epochs = 0;   ///< JMB variants; includes forced ones
  /// Delivery latencies, one sample per delivered frame, in delivery
  /// order (only populated when MacParams::record_latency is set).
  std::vector<double> frame_latency_s;
  /// Per-flow accounting; only populated when MacParams::traffic is set.
  std::vector<FlowStats> flows;
  std::size_t offered_packets = 0;    ///< arrivals drained from the source
  std::size_t aggregated_mpdus = 0;   ///< packets carried via aggregation
  double max_queue_depth = 0.0;       ///< peak shared-queue occupancy

  // --- resilience accounting (run_*_resilient variants; zero elsewhere) ---
  std::size_t lead_elections = 0;   ///< times the MAC re-elected a lead
  std::size_t faults_injected = 0;  ///< plan events whose begin edge fired
  std::size_t quarantines = 0;      ///< controller quarantine events
  std::size_t backhaul_drops = 0;   ///< downlink packets lost on the backhaul
  double mean_time_to_detect_s = 0.0;   ///< fault -> quarantine latency
  double mean_time_to_recover_s = 0.0;  ///< fault -> first clean joint tx
};

/// Baseline 802.11: one AP talks at a time; each client gets an equal
/// share of the medium (the paper's USRP baseline methodology). Rate per
/// client is picked by effective SNR from its best AP.
[[nodiscard]] MacReport run_baseline_mac(std::size_t n_clients,
                                         const LinkStateFn& link_state,
                                         const MacParams& params);

/// JMB: every transmission serves up to `n_streams` clients jointly.
/// A channel-measurement phase (airtime from measurement_airtime_s) runs
/// once per coherence interval. The lead and its sync header only matter
/// under faults (run_jmb_mac_resilient).
[[nodiscard]] MacReport run_jmb_mac(std::size_t n_aps, std::size_t n_clients,
                                    std::size_t n_streams,
                                    const LinkStateFn& link_state,
                                    const MacParams& params);

/// Baseline 802.11 under faults: each client associates with its best
/// *up* AP (the mask handed to `link_state` carries the session's up/down
/// state), so a crash only strands clients with no surviving AP —
/// per-AP independence is exactly what JMB's joint transmission gives up.
/// `fault` may be null, which reduces to run_baseline_mac semantics.
[[nodiscard]] MacReport run_baseline_mac_resilient(
    std::size_t n_aps, std::size_t n_clients,
    const MaskedLinkStateFn& link_state, const MacParams& params,
    fault::FaultSession* fault);

/// JMB under faults with detection and failover. The session's timeline
/// is pumped as virtual time advances; every joint transmission feeds the
/// controller per-slave sync-header evidence. While a crashed AP is still
/// *believed* active (detection lag) the stale precoder ruins the whole
/// joint transmission; once quarantined, the MAC triggers an immediate
/// re-measurement epoch and continues on the surviving set (the mask
/// passed to `link_state`). A dead lead is declared after three
/// headerless slots and a new lead elected from the surviving set.
/// Backhaul loss drops packets of the saturated fill; a TrafficSource's
/// arrivals are not subject to it. `fault` and `resilience` may be null
/// (either reduces that mechanism to a no-op); with both null this is
/// run_jmb_mac with a MaskedLinkStateFn.
[[nodiscard]] MacReport run_jmb_mac_resilient(
    std::size_t n_aps, std::size_t n_clients, std::size_t n_streams,
    const MaskedLinkStateFn& link_state, const MacParams& params,
    fault::FaultSession* fault, fault::ResilienceController* resilience);

}  // namespace jmb::net
