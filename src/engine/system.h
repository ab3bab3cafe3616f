// The full JMB system at complex-baseband sample level: a lead AP, slave
// APs and clients on a shared Medium, running the paper's two-phase
// protocol — channel measurement (Section 5.1), then joint data
// transmissions with distributed phase synchronization (Section 5.2) —
// plus the diversity mode (Section 8) and the nulling experiment used to
// quantify residual interference (Section 11.1c).
//
// JmbSystem is a thin facade over the staged frame pipeline in
// engine/pipeline.h: it owns the SystemState, validates inputs, and
// delegates frame processing to MeasurementStage/PrecodeStage (the
// measurement path) and SynthesisStage/PropagationStage/DecodeStage (the
// joint-transmission path). Attach an obs::ObsSink to get per-stage
// wall-time/failure/conditioning metrics and the physics probes for every
// frame it processes.
#pragma once

#include <optional>
#include <vector>

#include "engine/pipeline.h"

namespace jmb::core {

class JmbSystem {
 public:
  /// Build with explicit per-(client, ap) mean link power gains (linear,
  /// relative to noise_var = 1). gains[client][ap].
  JmbSystem(SystemParams params,
            const std::vector<std::vector<double>>& link_gains);

  /// Mean signal-to-noise of a client's *waveform* given a mean link power
  /// gain: OFDM time samples carry kOfdmTimePower of per-subcarrier unit
  /// power, which the gain multiplies.
  [[nodiscard]] static double gain_for_snr_db(double snr_db, double noise_var);

  /// Run the channel-measurement phase at the current time. Returns false
  /// if any client failed to detect the frame (no H update then).
  bool run_measurement();

  /// Has a usable precoder (measurement succeeded and H invertible)?
  [[nodiscard]] bool ready() const { return state_.precoder.has_value(); }

  /// Calibrate the operating point: scale every client's noise floor so
  /// the predicted post-beamforming SNR equals `target_db` (how the paper
  /// places clients "such that all clients obtain an effective SNR in the
  /// desired range"). Requires ready(); re-run run_measurement() after so
  /// the measurement noise matches the new operating point. Returns the
  /// applied shift in dB.
  double calibrate_to_effective_snr(double target_db);

  /// Jointly deliver one PSDU per client (all at the same MCS, as the
  /// paper's rate selection yields). Requires ready().
  [[nodiscard]] JointResult transmit_joint(
      const std::vector<phy::ByteVec>& psdus, const phy::Mcs& mcs);

  /// Diversity mode: all APs beamform the same PSDU to `client`.
  [[nodiscard]] phy::RxResult transmit_diversity(std::size_t client,
                                                 const phy::ByteVec& psdu,
                                                 const phy::Mcs& mcs);

  /// Nulling experiment (Fig. 8): transmit a joint frame whose stream for
  /// `nulled_client` is silence; report the interference-to-noise ratio
  /// (dB) observed at that client over the payload. Requires ready().
  [[nodiscard]] double measure_inr(std::size_t nulled_client);

  /// Phase-alignment probe (Fig. 7): after sync, the lead and slave 0
  /// transmit alternating OFDM symbols; the client reports the deviation
  /// of the slave-vs-lead relative phase from its first observation, one
  /// sample per round, advancing time by `gap_s` between rounds.
  [[nodiscard]] rvec measure_alignment_series(std::size_t n_rounds,
                                              double gap_s);

  /// Advance simulated time (lets oscillators drift / channels age
  /// between operations).
  void advance_time(double dt_seconds);
  [[nodiscard]] double now() const { return state_.now; }

  /// The H snapshot from the last measurement (client-side estimates).
  [[nodiscard]] const ChannelMatrixSet& measured_channels() const {
    return state_.h;
  }
  /// Post-beamforming SNR prediction per client (dB), from the precoder.
  [[nodiscard]] double predicted_beamforming_snr_db() const;

  /// Average power the OFDM waveform carries per time-domain sample when
  /// subcarriers hold unit-power symbols (52 used / 64^2 * 64).
  static constexpr double kOfdmTimePower = 52.0 / 4096.0;

  /// Attach the telemetry sink (null detaches): every subsequent frame
  /// records per-stage metrics into its registry, and the precoder, phase
  /// sync and decode stage publish conditioning / residual-phase / EVM
  /// distributions there. The caller keeps ownership; the sink must
  /// outlive the frames it observes.
  void attach_obs(obs::ObsSink* sink) {
    state_.obs = sink;
    for (auto& s : state_.slave_sync) s.attach_obs(sink);
  }

  /// Attach a per-trial fault session: the stages pump its timeline and
  /// poll its impairment windows (null detaches — and a null or
  /// empty-plan session leaves every output bit-identical to a run
  /// without one). Caller keeps ownership.
  void attach_fault(fault::FaultSession* session) { state_.fault = session; }

  /// Attach a resilience controller: run_sync_header feeds it per-slave
  /// sync evidence and the precode stage shrinks the joint set to its
  /// surviving APs (null detaches). Caller keeps ownership.
  void attach_resilience(fault::ResilienceController* ctrl) {
    state_.resilience = ctrl;
  }

  /// The shared world the pipeline stages operate on — for driving the
  /// stages directly (tests, custom probes) and read-only diagnostics.
  [[nodiscard]] engine::SystemState& state() { return state_; }
  [[nodiscard]] const engine::SystemState& state() const { return state_; }

 private:
  engine::SystemState state_;
  engine::FramePipeline pipeline_;
};

}  // namespace jmb::core
