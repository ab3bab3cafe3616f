// The staged frame pipeline behind JmbSystem.
//
// The monolithic frame path is decomposed into composable stages with a
// uniform Stage::run(StageContext&) interface, mirroring how AirSync and
// the Rogalin et al. scalable-synchronization systems structure their
// distributed-MIMO stacks:
//
//   measurement path:  MeasurementStage -> PrecodeStage
//   joint-tx path:     SynthesisStage -> PropagationStage -> DecodeStage
//
// SystemState is the shared world (medium, nodes, oscillator sync state,
// measured channels, precoder); a FrameContext carries one frame's inputs,
// intermediates and outputs through the stages. FramePipeline sequences
// the stages and records per-stage wall time into the attached
// StageMetricsSet, which the TrialRunner aggregates across trials.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "chan/medium.h"
#include "core/measurement.h"
#include "core/phase_sync.h"
#include "core/precoder.h"
#include "core/types.h"
#include "engine/metrics.h"
#include "phy/receiver.h"
#include "phy/transmitter.h"
#include "phy/workspace.h"

namespace jmb::core {

struct SystemParams {
  std::size_t n_aps = 2;
  std::size_t n_clients = 2;
  phy::PhyConfig phy{};

  /// Oscillator spread: each node's ppm ~ U(-range, range).
  double ap_ppm_range = 2.0;
  double client_ppm_range = 5.0;
  double phase_noise_linewidth_hz = 0.1;

  /// Fixed per-AP transmit timing offset range (cabling/pipeline skew,
  /// drawn once per AP). Constant offsets are absorbed into the measured
  /// channels, exactly as the paper argues for propagation delays.
  double fixed_timing_offset_s = 20e-9;
  /// Per-transmission timing repeatability jitter (std dev). Timestamped
  /// USRP transmissions repeat to a fraction of a sample; SourceSync
  /// absolute error is constant and lands in the fixed offset above.
  double trigger_jitter_s = 1e-9;

  /// Turnaround between lead sync header and the joint transmission
  /// (software latency on the paper's USRPs: 150 us).
  double turnaround_s = 150e-6;

  /// Client noise floor (linear power per sample); link gains are relative.
  double noise_var = 1.0;

  /// AP-to-AP link SNR in dB (APs share ledges; links are strong).
  double ap_ap_snr_db = 35.0;

  /// Interleaved measurement rounds.
  std::size_t measurement_rounds = 4;

  /// Propagation delay range for AP-client links (fractional samples ok).
  double prop_delay_min_s = 10e-9;
  double prop_delay_max_s = 60e-9;

  /// Multipath shape for every link. At 10 MHz a conference room's
  /// 30-100 ns delay spread is sub-sample: one dominant tap plus a weak
  /// echo. (Long tails would also break nulling at symbol boundaries,
  /// where circular convolution does not hold — a real effect, but not
  /// one this deployment scenario exhibits.)
  std::size_t n_taps = 2;
  double tap_decay = 0.15;
  double rice_k = 4.0;
  double coherence_time_s = 0.25;

  /// Ablation switch: when true, slaves transmit without any phase
  /// correction (no sync-header ratio, no CFO ramp) — the "distributed
  /// MIMO without phase synchronization" strawman.
  bool disable_slave_correction = false;

  /// Which precoder PrecodeStage builds each measurement epoch. The
  /// default (kZf, ridge 0) is bitwise-identical to the original
  /// ZF-only pipeline; see engine::env_precoder_kind for the JMB_PRECODER
  /// knob benches feed through here.
  PrecoderConfig precoder{};

  std::uint64_t seed = 1;
};

/// Outcome of one joint transmission.
struct JointResult {
  std::vector<phy::RxResult> per_client;
  double precoder_scale = 0.0;  ///< effective diagonal gain (amplitude)
  std::size_t slaves_synced = 0;
};

}  // namespace jmb::core

namespace jmb::fault {
class FaultSession;
class ResilienceController;
}  // namespace jmb::fault

namespace jmb::engine {

/// Samples of slack kept before scheduled frames in receive buffers.
inline constexpr std::size_t kRxMargin = 100;

/// Everything the stages share between frames: the medium, node handles,
/// per-slave sync state, the measured channel snapshot and the precoder.
/// JmbSystem owns one SystemState and is a thin facade over the stages.
struct SystemState {
  explicit SystemState(core::SystemParams p)
      : params(p),
        medium({p.phy.sample_rate_hz}, p.seed ^ 0xfeedbeef),
        rng(p.seed),
        h(p.n_clients, p.n_aps),
        tx(p.phy),
        rx(p.phy) {
    rx.set_workspace(&ws);
  }

  core::SystemParams params;
  chan::Medium medium;
  Rng rng;
  double now = 1e-3;

  std::vector<chan::NodeId> ap_nodes;      // [0] is the lead
  std::vector<chan::NodeId> client_nodes;
  std::vector<double> ap_tx_offset_s;      // fixed per-AP timing offset
  double client_noise_var = 1.0;
  std::vector<core::SlavePhaseSync> slave_sync;  // index 0 <-> ap 1

  core::ChannelMatrixSet h;
  std::optional<core::Precoder> precoder;

  /// Per-trial scratch arena: FFT plans, pinv scratch, receive buffers and
  /// the denoising-projection cache. One per SystemState (one per
  /// TrialRunner worker), so every stage runs lock-free off it. Declared
  /// before tx/rx so `rx` can bind to it during construction; Workspace is
  /// non-copyable, which also pins SystemState in place (rx holds &ws).
  Workspace ws;

  phy::Transmitter tx;
  phy::Receiver rx;

  /// Per-stage metrics sink; null disables instrumentation.
  StageMetricsSet* metrics = nullptr;
  /// Physics-probe sink (registry + optional trace); null = probes off.
  obs::ObsSink* obs = nullptr;
  /// Fault-injection session for this trial (null = no impairments). The
  /// stages pump its timeline to sys.now and poll its windows at the
  /// natural hook points; owned by the caller (see fault/injector.h).
  fault::FaultSession* fault = nullptr;
  /// Sync-loss detection / quarantine state machine (null = disabled).
  /// When attached, run_sync_header feeds it per-slave evidence and
  /// PrecodeStage re-derives the precoder from the surviving set.
  fault::ResilienceController* resilience = nullptr;
  /// Frames pushed through the pipeline; labels trace spans.
  std::uint64_t frame_seq = 0;
};

/// Lead sync header + per-slave corrections; `header_t` is the time the
/// header went out and `tx_start` when the joint waveform follows.
struct SyncOutcome {
  double header_t = 0.0;
  double tx_start = 0.0;
  std::vector<std::optional<core::SlaveCorrection>> per_slave;
};

/// Transmit the lead's sync header and collect every slave's correction
/// (nullopt where sync failed). Shared by SynthesisStage and the
/// phase-alignment probe.
[[nodiscard]] SyncOutcome run_sync_header(SystemState& sys);

/// Apply a slave correction to a waveform starting at tx_start.
void apply_slave_correction(const SystemState& sys, cvec& wave,
                            const core::SlaveCorrection& corr, double tx_start,
                            double header_t);

/// Mean 2-norm condition number over a spread of subcarriers (at most
/// `max_samples`, evenly strided) — the conditioning term K in the paper's
/// N log(SNR/K) beamforming rate, cheap enough to record per precoder.
[[nodiscard]] double mean_condition_number(const core::ChannelMatrixSet& h,
                                           std::size_t max_samples = 8);

/// One frame's worth of inputs, intermediates and outputs flowing through
/// the stages.
struct FrameContext {
  explicit FrameContext(SystemState& s) : sys(s) {}

  SystemState& sys;

  // --- measurement path ---
  std::optional<core::MeasurementSchedule> sched;
  std::optional<core::ChannelMatrixSet> h_measured;
  bool measurement_ok = false;

  // --- joint-transmission path ---
  /// One frequency-domain symbol stream per client (or a single stream for
  /// diversity mode): streams[j][symbol] is a kNfft-bin spectrum.
  const std::vector<std::vector<cvec>>* streams = nullptr;
  /// Per-subcarrier weight override (diversity MRT); null uses the ZF
  /// precoder from SystemState.
  const std::vector<CMatrix>* weights_override = nullptr;

  SyncOutcome sync;
  std::vector<std::optional<cvec>> ap_waves;  ///< nullopt: AP sits this one out
  std::vector<double> ap_tx_time;
  std::size_t wave_len = 0;
  std::vector<cvec> client_bufs;

  core::JointResult result;
};

/// The scheduling envelope a stage body receives: the frame flowing
/// through the stages plus the identity the execution mode attached to
/// it. Batch mode (FramePipeline) wraps each FrameContext on the stack
/// with the defaults below; streaming mode (engine/stream/) fills the
/// stream/deadline fields from the work item, so the same stage bodies
/// serve both modes without knowing which one is driving them.
struct StageContext {
  explicit StageContext(FrameContext& f) : frame(f) {}

  FrameContext& frame;
  /// Owning stream when pipelined (0 in batch mode).
  std::size_t stream_id = 0;
  /// Work-item sequence number within the stream (0 in batch mode).
  std::uint64_t item_seq = 0;
  /// Virtual-sample-clock deadline in wall seconds since pipeline start;
  /// +inf (or 0 in batch mode) means no deadline applies.
  double deadline_s = 0.0;
};

/// A composable pipeline stage. Stages communicate only through the
/// FrameContext inside the StageContext; the execution mode (batch
/// FramePipeline or streaming StreamPipeline) owns sequencing and timing.
class Stage {
 public:
  virtual ~Stage() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  virtual void run(StageContext& ctx) = 0;
};

/// Channel-measurement phase (Section 5.1): interleaved per-AP symbols;
/// slaves capture their lead reference, clients estimate the full H.
class MeasurementStage final : public Stage {
 public:
  [[nodiscard]] const char* name() const override { return kStageMeasure; }
  void run(StageContext& ctx) override;
};

/// Build the zero-forcing precoder from the measured snapshot.
class PrecodeStage final : public Stage {
 public:
  [[nodiscard]] const char* name() const override { return kStagePrecode; }
  void run(StageContext& ctx) override;
};

/// Sync header + per-AP waveform synthesis: jointly precoded LTF and data
/// symbols, with each synced slave's phase correction applied
/// (Section 5.2).
class SynthesisStage final : public Stage {
 public:
  [[nodiscard]] const char* name() const override { return kStageSynthesis; }
  void run(StageContext& ctx) override;
};

/// Schedule the waveforms on the shared medium and render every client's
/// receive buffer (multipath, CFO/SFO, phase noise, AWGN).
class PropagationStage final : public Stage {
 public:
  [[nodiscard]] const char* name() const override { return kStagePropagate; }
  void run(StageContext& ctx) override;
};

/// Standard receive chain at every client: CFO from the lead's sync
/// header, channel from the jointly precoded LTF, then decode.
class DecodeStage final : public Stage {
 public:
  [[nodiscard]] const char* name() const override { return kStageDecode; }
  void run(StageContext& ctx) override;
};

/// Sequences the stages for the two frame paths and records per-stage
/// wall time into SystemState::metrics when attached.
class FramePipeline {
 public:
  /// measure -> precode. Returns true when the snapshot was captured and
  /// the precoder is usable (what JmbSystem::run_measurement reports).
  bool run_measurement(FrameContext& ctx);

  /// synthesis -> propagate -> decode. Requires ctx.streams; validates
  /// exactly like the monolithic path did.
  [[nodiscard]] core::JointResult run_joint(FrameContext& ctx);

 private:
  void run_stage(Stage& stage, FrameContext& ctx);

  MeasurementStage measure_;
  PrecodeStage precode_;
  SynthesisStage synthesis_;
  PropagationStage propagate_;
  DecodeStage decode_;
};

}  // namespace jmb::engine
