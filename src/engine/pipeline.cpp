#include "engine/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "fault/injector.h"
#include "fault/resilience.h"
#include "linalg/pinv.h"
#include "obs/bounds.h"
#include "obs/flight/recorder.h"
#include "phy/ofdm.h"
#include "phy/preamble.h"
#include "simd/kernels.h"

namespace jmb::engine {

namespace {

/// Maximal runs of used-subcarrier indices whose FFT bins are contiguous
/// (for the 802.11 grid: k 0..25 -> bins 38..63, k 26..51 -> bins 1..26).
/// The subcarrier-batched synthesis kernels run once per run, over
/// contiguous weight-row and spectrum memory.
struct UsedRun {
  std::size_t k0;   ///< first used-subcarrier index
  std::size_t bin0; ///< its FFT bin; bins advance by 1 within the run
  std::size_t len;
};

/// Stack bound for the fused per-run stream-pointer arrays handed to
/// cmacn; larger systems fall back to the scalar per-bin loop.
constexpr std::size_t kMaxFusedStreams = 32;

const std::vector<UsedRun>& used_bin_runs() {
  static const std::vector<UsedRun> kRuns = [] {
    std::vector<UsedRun> runs;
    const auto& used = core::used_subcarriers();
    std::size_t k0 = 0;
    for (std::size_t k = 1; k <= used.size(); ++k) {
      if (k == used.size() ||
          phy::bin_of(used[k]) != phy::bin_of(used[k - 1]) + 1) {
        runs.push_back({k0, phy::bin_of(used[k0]), k - k0});
        k0 = k;
      }
    }
    return runs;
  }();
  return kRuns;
}

/// Advance the fault timeline to the current simulated time and land the
/// oscillator phase jumps / drift-rate steps it began on the owning medium
/// node. Crash and restart edges need no physical action here — the
/// session's own up/down mask gates transmissions at the stage hook
/// points. With no pending edges this is two comparisons — cheap enough
/// for every frame — and it never allocates.
void pump_faults(SystemState& sys) {
  if (!sys.fault) return;
  const std::span<const fault::FaultEvent> begun =
      sys.fault->advance_to(sys.now);
  if (begun.empty()) return;
  for (const fault::FaultEvent& ev : begun) {
    if (ev.ap >= sys.ap_nodes.size()) continue;
    chan::Oscillator& osc = sys.medium.oscillator_mutable(sys.ap_nodes[ev.ap]);
    if (ev.kind == fault::FaultKind::kPhaseJump) {
      osc.inject_phase_jump(ev.magnitude);
    } else if (ev.kind == fault::FaultKind::kCfoStep) {
      osc.inject_cfo_step(ev.magnitude, ev.t_s);
    }
  }
  // Rare (only on a fault edge), so the interning lookup is fine here.
  obs::flight::instant("fault/injected", obs::flight::kNoFlow,
                       sys.fault->events_applied());
  if (sys.resilience) sys.resilience->note_fault(sys.fault->last_fault_t());
}

}  // namespace

SyncOutcome run_sync_header(SystemState& sys) {
  pump_faults(sys);
  const double fs = phy::kSampleRateHz;
  SyncOutcome out;
  out.header_t = sys.now;
  out.per_slave.resize(sys.params.n_aps - 1);
  const bool lead_down = sys.fault && sys.fault->ap_down(0);
  if (!lead_down) {
    sys.medium.transmit(sys.ap_nodes[0], out.header_t, phy::preamble_time());
  }
  // A crashed slave neither listens nor reports; with the lead down there
  // is no header on the air to measure. Nothing below changes who is down,
  // so every listener renders the header window in one pass.
  const auto listens = [&](std::size_t a) {
    return !lead_down && !(sys.fault && sys.fault->ap_down(a));
  };
  std::vector<chan::NodeId> listeners;
  for (std::size_t a = 1; a < sys.params.n_aps; ++a) {
    if (listens(a)) listeners.push_back(sys.ap_nodes[a]);
  }
  std::vector<cvec> bufs(listeners.size());
  sys.medium.receive_into(listeners, out.header_t - kRxMargin / fs,
                          kRxMargin + phy::kPreambleLen + 180, bufs);
  std::size_t next_buf = 0;
  for (std::size_t a = 1; a < sys.params.n_aps; ++a) {
    if (listens(a)) {
      const cvec& buf = bufs[next_buf++];
      auto pm = sys.rx.measure_preamble(buf);
      if (pm && sys.fault && sys.fault->sync_header_lost(a)) pm.reset();
      if (pm && sys.fault) {
        // Corruption window: the header decodes, but the channel
        // observation carries an extra phase error.
        const double err = sys.fault->sync_header_phase_error(a);
        if (err != 0.0) pm->chan.rotate(err);
      }
      if (pm && sys.slave_sync[a - 1].has_reference()) {
        out.per_slave[a - 1] = sys.slave_sync[a - 1].on_sync_header(
            pm->chan, pm->cfo_hz, out.header_t);
      }
    }
    if (sys.resilience) {
      const bool ok = out.per_slave[a - 1].has_value();
      sys.resilience->on_sync_result(
          a, ok, ok ? sys.slave_sync[a - 1].last_residual_rad() : 0.0,
          out.header_t);
    }
  }
  out.tx_start = out.header_t + static_cast<double>(phy::kPreambleLen) / fs +
                 kTurnaroundS;
  return out;
}

void apply_slave_correction(cvec& wave, const core::SlaveCorrection& corr,
                            double tx_start, double header_t) {
  const double fs = phy::kSampleRateHz;
  const double base_dt = tx_start - header_t;
  for (std::size_t n = 0; n < wave.size(); ++n) {
    wave[n] *= corr.at(base_dt + static_cast<double>(n) / fs);
  }
}

double mean_condition_number(const core::ChannelMatrixSet& h,
                             std::size_t max_samples) {
  if (h.n_subcarriers() == 0 || max_samples == 0) return 0.0;
  const std::size_t stride =
      std::max<std::size_t>(1, h.n_subcarriers() / max_samples);
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t k = 0; k < h.n_subcarriers(); k += stride) {
    const CMatrix& a = h.at(k);
    if (a.rows() < a.cols()) {
      // Wide matrix (fewer clients than APs): condition over the nonzero
      // singular values, via the small Gram matrix A A^H.
      sum += std::sqrt(condition_number(a * a.hermitian()));
    } else {
      sum += condition_number(a);
    }
    ++n;
  }
  return sum / static_cast<double>(n);
}

void MeasurementStage::run(StageContext& stage_ctx) {
  FrameContext& ctx = stage_ctx.frame;
  SystemState& sys = ctx.sys;
  pump_faults(sys);
  sys.medium.clear_transmissions();
  sys.medium.evolve_links_to(sys.now);
  const double fs = phy::kSampleRateHz;
  ctx.sched = core::MeasurementSchedule{sys.params.n_aps};
  const core::MeasurementSchedule& sched = *ctx.sched;
  const double frame_t = sys.now;

  // With the lead crashed there is no reference transmitter: the epoch is
  // lost, but simulated time still advances so the world keeps moving.
  if (sys.fault && sys.fault->ap_down(0)) {
    if (sys.metrics) sys.metrics->stage(kStageMeasure).add_detect_failure();
    sys.now = frame_t + static_cast<double>(sched.frame_len() + 400) / fs;
    return;
  }

  sys.medium.transmit(sys.ap_nodes[0], frame_t, sched.ap_waveform(0));
  for (std::size_t a = 1; a < sys.params.n_aps; ++a) {
    if (sys.fault && sys.fault->ap_down(a)) continue;  // crashed: silent
    const double jitter = sys.rng.gaussian(kTriggerJitterS);
    sys.medium.transmit(sys.ap_nodes[a],
                        frame_t + sys.ap_tx_offset_s[a] + jitter,
                        sched.ap_waveform(a));
  }

  // Slaves capture their reference channel from the lead's sync header and
  // extrapolate it to the snapshot time the clients use (the center of the
  // interleaved block) with their CFO estimate. The AP-AP link is strong,
  // so the per-header CFO estimate already makes this extrapolation error
  // negligible, and the long-term average tightens it further.
  const double ref_dt = static_cast<double>(sched.reference_offset()) / fs;
  for (std::size_t a = 1; a < sys.params.n_aps; ++a) {
    if (sys.fault && sys.fault->ap_down(a)) continue;  // crashed: no capture
    const cvec buf =
        sys.medium.receive(sys.ap_nodes[a], frame_t - kRxMargin / fs,
                           kRxMargin + sched.frame_len() + 200);
    const auto pm = sys.rx.measure_preamble(buf);
    if (!pm) {
      if (sys.metrics) sys.metrics->stage(kStageMeasure).add_detect_failure();
      return;  // measurement_ok stays false; time does not advance
    }
    sys.slave_sync[a - 1].observe_cfo(pm->cfo_hz);
    // The slave overhears the whole interleaved frame; processing the
    // lead's symbols like a client yields a far finer CFO estimate (the
    // LS fit spans the whole block) than a single preamble correlation —
    // this is what bounds the within-packet phase drift (Section 5.3).
    if (const auto own =
            process_measurement_frame(buf, sched, phy::PhyConfig{}, sys.ws)) {
      sys.slave_sync[a - 1].set_cfo_estimate(own->per_ap[0].cfo_hz);
    }
    phy::ChannelEstimate ref = pm->chan;
    ref.rotate(kTwoPi * sys.slave_sync[a - 1].cfo_estimate_hz() * ref_dt);
    sys.slave_sync[a - 1].set_reference(ref, frame_t + ref_dt);
  }

  // Clients measure all AP channels, referenced to the sync header.
  bool all_ok = true;
  core::ChannelMatrixSet h(sys.params.n_clients, sys.params.n_aps);
  for (std::size_t c = 0; c < sys.params.n_clients; ++c) {
    const cvec buf =
        sys.medium.receive(sys.client_nodes[c], frame_t - kRxMargin / fs,
                           kRxMargin + sched.frame_len() + 200);
    const auto cm =
        process_measurement_frame(buf, sched, phy::PhyConfig{}, sys.ws);
    if (!cm) {
      if (sys.metrics) sys.metrics->stage(kStageMeasure).add_detect_failure();
      all_ok = false;
      break;
    }
    const auto& used = core::used_subcarriers();
    for (std::size_t a = 0; a < sys.params.n_aps; ++a) {
      for (std::size_t k = 0; k < used.size(); ++k) {
        h.at(k)(c, a) = cm->per_ap[a].channel.at(used[k]);
      }
    }
  }
  sys.now = frame_t + static_cast<double>(sched.frame_len() + 400) / fs;
  if (!all_ok) return;
  if (sys.fault && sys.fault->stale_channel() && sys.h.n_subcarriers() > 0) {
    // Stale-channel window: the epoch physically ran (time advanced, RNG
    // streams evolved) but the distribution system re-delivers the
    // previous snapshot — the precoder ages while the world moves on.
    ctx.h_measured = sys.h;
  } else {
    ctx.h_measured = std::move(h);
  }
  ctx.measurement_ok = true;
}

void PrecodeStage::run(StageContext& stage_ctx) {
  FrameContext& ctx = stage_ctx.frame;
  SystemState& sys = ctx.sys;
  if (!ctx.measurement_ok || !ctx.h_measured) return;
  sys.h = std::move(*ctx.h_measured);
  ctx.h_measured.reset();
  if (sys.resilience) {
    // This measurement epoch re-anchored every participating reference:
    // probation APs rejoin here with trustworthy state.
    sys.resilience->on_remeasure(sys.now);
  }
  if (sys.resilience && sys.resilience->any_quarantined()) {
    // Shrink the joint transmission to the surviving set: derive weights
    // from the reduced H so quarantined APs carry exactly zero weight.
    sys.precoder = core::Precoder::build_masked(
        sys.h, sys.params.precoder, sys.resilience->active(), sys.ws,
        sys.obs);
  } else {
    // Rebuild in place: after the first epoch the weight matrices and the
    // packed SoA view reuse their capacity, keeping the per-coherence
    // rebuild allocation-free (values bitwise-identical to a fresh build).
    if (!sys.precoder) sys.precoder.emplace();
    if (!sys.precoder->rebuild_kind(sys.h, sys.params.precoder, sys.ws.pinv,
                                    sys.obs)) {
      sys.precoder.reset();
    }
  }
  if (sys.metrics && sys.precoder) {
    sys.metrics->stage(kStagePrecode).add_condition(
        mean_condition_number(sys.h));
  }
}

void SynthesisStage::run(StageContext& stage_ctx) {
  FrameContext& ctx = stage_ctx.frame;
  SystemState& sys = ctx.sys;
  const std::vector<std::vector<cvec>>& streams = *ctx.streams;
  const std::size_t n_streams = streams.size();
  const std::size_t n_sym = streams.empty() ? 0 : streams[0].size();
  const auto& used = core::used_subcarriers();

  sys.medium.clear_transmissions();
  sys.medium.evolve_links_to(sys.now);
  ctx.sync = run_sync_header(sys);

  ctx.result.precoder_scale = sys.precoder ? sys.precoder->scale() : 0.0;

  const auto weight_at = [&](std::size_t k) -> const CMatrix& {
    return ctx.weights_override ? (*ctx.weights_override)[k]
                                : sys.precoder->weights(k);
  };

  // Build each AP's waveform: jointly precoded LTF (double guard + 2
  // symbols) followed by the precoded stream symbols.
  ctx.wave_len = phy::kLtfLen + n_sym * phy::kSymbolLen;
  ctx.ap_waves.assign(sys.params.n_aps, std::nullopt);
  ctx.ap_tx_time.assign(sys.params.n_aps, 0.0);
  // Spectrum / LTF-time scratch from the per-trial workspace; the waveform
  // itself must be a fresh vector (it is moved onto the medium).
  auto& spec = sys.ws.spec;
  auto& ltf_time = sys.ws.sym_time;
  // Fast path: the ZF precoder exposes packed per-(antenna, stream)
  // weight rows, so the per-bin stream sums run through the dispatched
  // subcarrier-batched kernels over the two contiguous used-bin runs.
  // The per-bin accumulation order over j is unchanged (j is the outer
  // loop, each bin's partial sum lives in spec), so the spectrum is
  // bitwise identical to the scalar per-bin loop below, which remains
  // the reference for weight overrides (transmit-diversity MRT).
  const bool packed = !ctx.weights_override && sys.precoder.has_value() &&
                      n_streams <= kMaxFusedStreams;
  const auto& runs = used_bin_runs();
  const simd::Kernels& kern = simd::active_kernels();
  for (std::size_t a = 0; a < sys.params.n_aps; ++a) {
    // Precoded LTF spectrum for this AP: sum over streams of W(a, j) * L.
    spec.assign(phy::kNfft, cplx{});
    const cvec& l = phy::ltf_freq();
    if (packed) {
      double* const spec_d = reinterpret_cast<double*>(spec.data());
      const double* const l_d = reinterpret_cast<const double*>(l.data());
      for (std::size_t j = 0; j < n_streams; ++j) {
        const double* const wrow = reinterpret_cast<const double*>(
            sys.precoder->weight_row(a, j).data());
        for (const UsedRun& r : runs) {
          kern.cacc(spec_d + 2 * r.bin0, wrow + 2 * r.k0, r.len);
        }
      }
      for (const UsedRun& r : runs) {
        kern.cmul_ew(spec_d + 2 * r.bin0, spec_d + 2 * r.bin0,
                     l_d + 2 * r.bin0, r.len);
      }
    } else {
      for (std::size_t k = 0; k < used.size(); ++k) {
        const std::size_t bin = phy::bin_of(used[k]);
        cplx w_sum{};
        for (std::size_t j = 0; j < n_streams; ++j) w_sum += weight_at(k)(a, j);
        spec[bin] = w_sum * l[bin];
      }
    }
    ltf_time.assign(spec.begin(), spec.end());
    phy::ofdm_fft_plan().inverse(ltf_time);
    cvec wave(ctx.wave_len);
    for (std::size_t i = 0; i < 32; ++i) {
      wave[i] = ltf_time[phy::kNfft - 32 + i];
    }
    std::copy(ltf_time.begin(), ltf_time.end(), wave.begin() + 32);
    std::copy(ltf_time.begin(), ltf_time.end(), wave.begin() + 32 + phy::kNfft);

    for (std::size_t s = 0; s < n_sym; ++s) {
      spec.assign(phy::kNfft, cplx{});
      if (packed) {
        double* const spec_d = reinterpret_cast<double*>(spec.data());
        for (const UsedRun& r : runs) {
          const double* wrows[kMaxFusedStreams];
          const double* xrows[kMaxFusedStreams];
          for (std::size_t j = 0; j < n_streams; ++j) {
            wrows[j] = reinterpret_cast<const double*>(
                           sys.precoder->weight_row(a, j).data()) +
                       2 * r.k0;
            xrows[j] = reinterpret_cast<const double*>(streams[j][s].data()) +
                       2 * r.bin0;
          }
          kern.cmacn(spec_d + 2 * r.bin0, wrows, xrows, n_streams, r.len);
        }
      } else {
        for (std::size_t k = 0; k < used.size(); ++k) {
          const std::size_t bin = phy::bin_of(used[k]);
          cplx acc{};
          for (std::size_t j = 0; j < n_streams; ++j) {
            acc += weight_at(k)(a, j) * streams[j][s][bin];
          }
          spec[bin] = acc;
        }
      }
      phy::ofdm_modulate_into(
          spec,
          std::span<cplx>(wave).subspan(phy::kLtfLen + s * phy::kSymbolLen,
                                        phy::kSymbolLen));
    }

    if (a == 0) {
      if (sys.fault && sys.fault->ap_down(0)) continue;  // lead crashed
      ctx.ap_tx_time[0] = ctx.sync.tx_start;
      ctx.ap_waves[0] = std::move(wave);
      continue;
    }
    const auto& corr = ctx.sync.per_slave[a - 1];
    if (!corr) continue;  // slave failed to sync: it sits this one out
    if (sys.resilience && sys.resilience->quarantined(a)) {
      continue;  // quarantined: excluded from the joint set until readmitted
    }
    ++ctx.result.slaves_synced;
    if (!sys.params.disable_slave_correction) {
      apply_slave_correction(wave, *corr, ctx.sync.tx_start,
                             ctx.sync.header_t);
    }
    const double jitter = sys.rng.gaussian(kTriggerJitterS);
    ctx.ap_tx_time[a] = ctx.sync.tx_start + sys.ap_tx_offset_s[a] + jitter;
    ctx.ap_waves[a] = std::move(wave);
  }
}

void PropagationStage::run(StageContext& stage_ctx) {
  FrameContext& ctx = stage_ctx.frame;
  SystemState& sys = ctx.sys;
  const double fs = phy::kSampleRateHz;
  for (std::size_t a = 0; a < sys.params.n_aps; ++a) {
    if (!ctx.ap_waves[a]) continue;
    sys.medium.transmit(sys.ap_nodes[a], ctx.ap_tx_time[a],
                        std::move(*ctx.ap_waves[a]));
    ctx.ap_waves[a].reset();
  }
  const std::size_t total =
      kRxMargin + phy::kPreambleLen +
      static_cast<std::size_t>(kTurnaroundS * fs) + ctx.wave_len +
      300;
  ctx.client_bufs.resize(sys.params.n_clients);
  sys.medium.receive_into(sys.client_nodes, ctx.sync.header_t - kRxMargin / fs,
                          total, ctx.client_bufs);
  sys.now = ctx.sync.tx_start + static_cast<double>(ctx.wave_len + 400) / fs;
}

void DecodeStage::run(StageContext& stage_ctx) {
  FrameContext& ctx = stage_ctx.frame;
  SystemState& sys = ctx.sys;
  const double fs = phy::kSampleRateHz;
  ctx.result.per_client.resize(sys.params.n_clients);
  bool all_ok = true;
  for (std::size_t c = 0; c < sys.params.n_clients; ++c) {
    const cvec& buf = ctx.client_bufs[c];
    const auto pm = sys.rx.measure_preamble(buf);
    if (!pm) {
      ctx.result.per_client[c].fail_reason = "sync header not detected";
      all_ok = false;
      if (sys.metrics) sys.metrics->stage(kStageDecode).add_detect_failure();
      if (sys.obs) sys.obs->count("decode/preamble_miss");
      continue;
    }
    const std::size_t header_pos =
        pm->ltf_start >= 192 ? pm->ltf_start - 192 : pm->stf_start;
    const std::size_t payload_start =
        header_pos + phy::kPreambleLen +
        static_cast<std::size_t>(kTurnaroundS * fs);
    ctx.result.per_client[c] = sys.rx.receive_payload(buf, payload_start,
                                                      pm->cfo_hz);
    const phy::RxResult& r = ctx.result.per_client[c];
    if (!r.ok) all_ok = false;
    if (sys.metrics && !r.ok) {
      sys.metrics->stage(kStageDecode).add_detect_failure();
    }
    if (sys.obs) {
      sys.obs->count(r.ok ? "decode/frames_ok" : "decode/frames_bad");
      if (r.header_ok) {
        sys.obs->observe("decode/evm_snr_db", obs::kDbBounds, r.evm_snr_db);
      }
    }
  }
  if (sys.resilience && all_ok && ctx.result.per_client.size() > 0) {
    // First fully-delivered joint transmission after a quarantine stamps
    // the recovery latency (idempotent until the next quarantine).
    sys.resilience->on_recovered(sys.now);
  }
}

void FramePipeline::run_stage(Stage& stage, FrameContext& ctx) {
  StageContext sctx(ctx);
  StageMetricsSet* m = ctx.sys.metrics;
  if (!m) {
    stage.run(sctx);
    return;
  }
  const ScopedStageTimer timer(m, stage.name(), ctx.sys.obs,
                               ctx.sys.frame_seq);
  stage.run(sctx);
}

bool FramePipeline::run_measurement(FrameContext& ctx) {
  ++ctx.sys.frame_seq;
  run_stage(measure_, ctx);
  if (!ctx.measurement_ok) return false;
  run_stage(precode_, ctx);
  return ctx.sys.precoder.has_value();
}

core::JointResult FramePipeline::run_joint(FrameContext& ctx) {
  SystemState& sys = ctx.sys;
  ++sys.frame_seq;
  if (!sys.precoder && ctx.weights_override == nullptr) {
    throw std::logic_error("run_joint: no precoder");
  }
  if (ctx.streams == nullptr) {
    throw std::logic_error("run_joint: no streams");
  }
  const std::size_t n_sym =
      ctx.streams->empty() ? 0 : (*ctx.streams)[0].size();
  for (const auto& s : *ctx.streams) {
    if (s.size() != n_sym) {
      throw std::invalid_argument("run_joint: ragged streams");
    }
  }
  run_stage(synthesis_, ctx);
  run_stage(propagate_, ctx);
  run_stage(decode_, ctx);
  return std::move(ctx.result);
}

}  // namespace jmb::engine
