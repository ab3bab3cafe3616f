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

/// The sample-level system models the paper's USRP2 testbed (10 MHz at
/// 2.4 GHz, one conference room). Its fixed physics lives in constants
/// next to the code that reads them: system.cpp builds the nodes and
/// links, pipeline.cpp runs the frames, and the two they share are below
/// (engine::kTurnaroundS, engine::kTriggerJitterS).
struct SystemParams {
  std::size_t n_aps = 2;
  std::size_t n_clients = 2;

  /// Coherence time of every link (the Doppler of the fading process).
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

/// Turnaround between the lead's sync header and the joint transmission
/// (software latency on the paper's USRPs: 150 us).
inline constexpr double kTurnaroundS = 150e-6;

/// Per-transmission timing repeatability jitter (std dev). Timestamped
/// USRP transmissions repeat to a fraction of a sample; SourceSync
/// absolute error is constant and lands in the fixed per-AP offset.
inline constexpr double kTriggerJitterS = 1e-9;

/// Everything the stages share between frames: the medium, node handles,
/// per-slave sync state, the measured channel snapshot and the precoder.
/// JmbSystem owns one SystemState and is a thin facade over the stages.
struct SystemState {
  explicit SystemState(core::SystemParams p)
      : params(p),
        medium({phy::kSampleRateHz}, p.seed ^ 0xfeedbeef),
        rng(p.seed),
        h(p.n_clients, p.n_aps) {
    rx.set_workspace(&ws);
  }

  core::SystemParams params;
  chan::Medium medium;
  Rng rng;
  double now = 1e-3;

  std::vector<chan::NodeId> ap_nodes;      // [0] is the lead
  std::vector<chan::NodeId> client_nodes;
  std::vector<double> ap_tx_offset_s;      // fixed per-AP timing offset
  double client_noise_var = 1.0;  // linear power per sample; gains relative
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
void apply_slave_correction(cvec& wave, const core::SlaveCorrection& corr,
                            double tx_start, double header_t);

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

/// What a stage body receives: the frame flowing through the stages.
/// FramePipeline wraps each FrameContext on the stack; tests and tools
/// that drive a single stage build one the same way.
struct StageContext {
  explicit StageContext(FrameContext& f) : frame(f) {}

  FrameContext& frame;
};

/// A composable pipeline stage. Stages communicate only through the
/// FrameContext inside the StageContext; FramePipeline owns sequencing
/// and timing.
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
