#include "engine/system.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "phy/ofdm.h"
#include "phy/preamble.h"
#include "phy/sync.h"

namespace jmb::core {

using engine::kRxMargin;
using engine::kTriggerJitterS;
using engine::kTurnaroundS;

double JmbSystem::gain_for_snr_db(double snr_db, double noise_var) {
  return noise_var * from_db(snr_db) / kOfdmTimePower;
}

namespace {

/// Oscillator spread: each node's ppm ~ U(-range, range).
constexpr double kApPpmRange = 2.0;
constexpr double kClientPpmRange = 5.0;
constexpr double kPhaseNoiseLinewidthHz = 0.1;

/// Fixed per-AP transmit timing offset range (cabling/pipeline skew,
/// drawn once per AP). Constant offsets are absorbed into the measured
/// channels, exactly as the paper argues for propagation delays.
constexpr double kFixedTimingOffsetS = 20e-9;

/// Client noise floor (linear power per sample); link gains are relative.
constexpr double kNoiseVar = 1.0;

/// AP-to-AP link SNR in dB (APs share ledges; links are strong).
constexpr double kApApSnrDb = 35.0;

/// Propagation delay range for AP-client links (fractional samples ok).
constexpr double kPropDelayMinS = 10e-9;
constexpr double kPropDelayMaxS = 60e-9;

/// Multipath shape for every AP-client link. At 10 MHz a conference
/// room's 30-100 ns delay spread is sub-sample: one dominant tap plus a
/// weak echo. (Long tails would also break nulling at symbol boundaries,
/// where circular convolution does not hold — a real effect, but not one
/// this deployment scenario exhibits.)
constexpr std::size_t kTaps = 2;
constexpr double kTapDecay = 0.15;
constexpr double kRiceK = 4.0;

/// Entry check for SystemParams, run before any RNG draw: a bad value
/// throws naming its field instead of building a system that never
/// measures.
const SystemParams& validated(const SystemParams& p) {
  const auto require = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument(std::string("JmbSystem: SystemParams::") +
                                  what);
    }
  };
  require(p.n_aps > 0, "n_aps must be > 0");
  require(p.n_clients > 0, "n_clients must be > 0");
  // NaN fails the comparison; a NaN coherence time would build a system
  // that never measures.
  require(p.coherence_time_s > 0, "coherence_time_s must be > 0");
  return p;
}

}  // namespace

JmbSystem::JmbSystem(SystemParams params,
                     const std::vector<std::vector<double>>& link_gains)
    : state_(validated(params)) {
  if (link_gains.size() != params.n_clients) {
    throw std::invalid_argument("JmbSystem: link_gains rows != n_clients");
  }
  state_.client_noise_var = kNoiseVar;
  // Register APs, then clients.
  for (std::size_t a = 0; a < params.n_aps; ++a) {
    state_.ap_nodes.push_back(state_.medium.add_node(
        {.ppm = state_.rng.uniform(-kApPpmRange, kApPpmRange),
         .phase_noise_linewidth_hz = kPhaseNoiseLinewidthHz,
         .seed = state_.rng.next_u64()},
        kNoiseVar));
    // Deterministic per-AP transmit timing skew: the lead anchors t = 0.
    state_.ap_tx_offset_s.push_back(
        a == 0 ? 0.0
               : state_.rng.uniform(-kFixedTimingOffsetS, kFixedTimingOffsetS));
  }
  for (std::size_t c = 0; c < params.n_clients; ++c) {
    state_.client_nodes.push_back(state_.medium.add_node(
        {.ppm = state_.rng.uniform(-kClientPpmRange, kClientPpmRange),
         .phase_noise_linewidth_hz = kPhaseNoiseLinewidthHz,
         .seed = state_.rng.next_u64()},
        kNoiseVar));
  }
  // AP -> client links.
  for (std::size_t c = 0; c < params.n_clients; ++c) {
    if (link_gains[c].size() != params.n_aps) {
      throw std::invalid_argument("JmbSystem: link_gains cols != n_aps");
    }
    for (std::size_t a = 0; a < params.n_aps; ++a) {
      state_.medium.set_link(
          state_.ap_nodes[a], state_.client_nodes[c],
          {.gain = link_gains[c][a],
           .n_taps = kTaps,
           .tap_decay = kTapDecay,
           .rice_k = kRiceK,
           .delay_s = state_.rng.uniform(kPropDelayMinS, kPropDelayMaxS),
           .coherence_time_s = params.coherence_time_s,
           .seed = state_.rng.next_u64()});
    }
  }
  // Lead -> slave links (strong: APs share the ceiling ledges). Rician
  // with a hefty LOS term keeps the sync-header SNR predictably high.
  const double ap_gain = gain_for_snr_db(kApApSnrDb, kNoiseVar);
  for (std::size_t a = 1; a < params.n_aps; ++a) {
    state_.medium.set_link(state_.ap_nodes[0], state_.ap_nodes[a],
                           {.gain = ap_gain,
                            .n_taps = 2,
                            .tap_decay = 0.2,
                            .rice_k = 10.0,
                            .delay_s = state_.rng.uniform(5e-9, 40e-9),
                            .coherence_time_s = params.coherence_time_s,
                            .seed = state_.rng.next_u64()});
    state_.slave_sync.emplace_back();
  }
}

void JmbSystem::advance_time(double dt_seconds) {
  if (dt_seconds < 0) throw std::invalid_argument("advance_time: negative dt");
  state_.now += dt_seconds;
}

double JmbSystem::predicted_beamforming_snr_db() const {
  if (!state_.precoder) {
    throw std::logic_error("predicted_beamforming_snr_db: not ready");
  }
  // Subcarrier symbols of unit power arrive with amplitude scale; the
  // client-side per-subcarrier noise is flat. Frequency-domain noise after
  // an unnormalized 64-point FFT is 64x the per-sample noise power.
  return to_db(state_.precoder->predicted_snr(state_.client_noise_var * 64.0));
}

double JmbSystem::calibrate_to_effective_snr(double target_db) {
  const double delta_db = predicted_beamforming_snr_db() - target_db;
  state_.client_noise_var *= from_db(delta_db);
  for (chan::NodeId id : state_.client_nodes) {
    state_.medium.set_noise_var(id, state_.client_noise_var);
  }
  return delta_db;
}

bool JmbSystem::run_measurement() {
  engine::FrameContext ctx(state_);
  return pipeline_.run_measurement(ctx);
}

JointResult JmbSystem::transmit_joint(const std::vector<phy::ByteVec>& psdus,
                                      const phy::Mcs& mcs) {
  if (!state_.precoder) {
    throw std::logic_error("transmit_joint: run_measurement first");
  }
  if (psdus.size() != state_.params.n_clients) {
    throw std::invalid_argument("transmit_joint: need one PSDU per client");
  }
  std::vector<std::vector<cvec>> streams;
  streams.reserve(psdus.size());
  std::size_t n_sym = 0;
  for (const auto& psdu : psdus) {
    streams.push_back(state_.tx.build_freq_symbols(psdu, mcs));
    n_sym = std::max(n_sym, streams.back().size());
  }
  for (auto& s : streams) {
    // Equalize stream lengths with silent symbols (pilot-only padding
    // would also work; zero is simplest and decodes identically since the
    // SIGNAL field bounds the payload).
    while (s.size() < n_sym) s.emplace_back(phy::kNfft, cplx{});
  }
  engine::FrameContext ctx(state_);
  ctx.streams = &streams;
  return pipeline_.run_joint(ctx);
}

phy::RxResult JmbSystem::transmit_diversity(std::size_t client,
                                            const phy::ByteVec& psdu,
                                            const phy::Mcs& mcs) {
  if (client >= state_.params.n_clients) {
    throw std::invalid_argument("transmit_diversity: bad client");
  }
  if (state_.h.n_subcarriers() == 0) {
    throw std::logic_error("transmit_diversity: run_measurement first");
  }
  // MRT weights from the measured row of H.
  const auto& used = used_subcarriers();
  std::vector<cvec> row(used.size());
  for (std::size_t k = 0; k < used.size(); ++k) {
    row[k] = state_.h.at(k).row(client);
  }
  const MrtPrecoder mrt = MrtPrecoder::build(row);

  std::vector<CMatrix> weights(used.size(), CMatrix(state_.params.n_aps, 1));
  for (std::size_t k = 0; k < used.size(); ++k) {
    weights[k].set_col(0, mrt.weights(k));
  }
  std::vector<std::vector<cvec>> streams{
      state_.tx.build_freq_symbols(psdu, mcs)};
  engine::FrameContext ctx(state_);
  ctx.streams = &streams;
  ctx.weights_override = &weights;
  JointResult jr = pipeline_.run_joint(ctx);
  return jr.per_client[client];
}

double JmbSystem::measure_inr(std::size_t nulled_client) {
  if (!state_.precoder) {
    throw std::logic_error("measure_inr: run_measurement first");
  }
  if (nulled_client >= state_.params.n_clients) {
    throw std::invalid_argument("measure_inr: bad client");
  }
  // Random unit-power QPSK payloads on every stream except the nulled one.
  constexpr std::size_t kProbeSymbols = 24;
  std::vector<std::vector<cvec>> streams(state_.params.n_clients);
  for (std::size_t j = 0; j < state_.params.n_clients; ++j) {
    for (std::size_t s = 0; s < kProbeSymbols; ++s) {
      if (j == nulled_client) {
        streams[j].emplace_back(phy::kNfft, cplx{});
        continue;
      }
      cvec data(phy::kNumDataCarriers);
      const double amp = 1.0 / std::sqrt(2.0);
      for (cplx& v : data) {
        v = cplx{state_.rng.bernoulli() ? amp : -amp,
                 state_.rng.bernoulli() ? amp : -amp};
      }
      streams[j].push_back(phy::map_subcarriers(data, s));
    }
  }
  const double fs = phy::kSampleRateHz;
  const double header_t = state_.now;
  engine::FrameContext ctx(state_);
  ctx.streams = &streams;
  const JointResult jr = pipeline_.run_joint(ctx);
  (void)jr;

  // Measure power at the nulled client strictly inside the symbol portion
  // of the joint waveform (skip the LTF which is also nulled, but avoid
  // edge transients).
  const double tx_start = header_t +
                          static_cast<double>(phy::kPreambleLen) / fs +
                          kTurnaroundS;
  const double probe_at =
      tx_start + static_cast<double>(phy::kLtfLen + 80) / fs;
  const std::size_t n = (kProbeSymbols - 2) * phy::kSymbolLen;
  // NOTE: the pipeline cleared and re-scheduled transmissions; they are
  // still registered with the medium, so re-rendering this window is valid.
  const cvec heard =
      state_.medium.receive(state_.client_nodes[nulled_client], probe_at, n);
  const double p = mean_power(heard);
  return to_db(std::max(p, 1e-12) / state_.client_noise_var);
}

rvec JmbSystem::measure_alignment_series(std::size_t n_rounds, double gap_s) {
  if (state_.params.n_aps < 2 || state_.params.n_clients < 1) {
    throw std::logic_error(
        "measure_alignment_series: need >= 2 APs and a client");
  }
  if (!state_.slave_sync[0].has_reference()) {
    throw std::logic_error("measure_alignment_series: run_measurement first");
  }
  const double fs = phy::kSampleRateHz;
  const cvec sym = phy::ofdm_modulate(phy::ltf_freq());  // CP + LTF
  constexpr std::size_t kPairs = 2;

  rvec deviations;
  std::optional<double> reference_delta;
  for (std::size_t round = 0; round < n_rounds; ++round) {
    state_.medium.clear_transmissions();
    state_.medium.evolve_links_to(state_.now);
    const engine::SyncOutcome sync = engine::run_sync_header(state_);
    if (!sync.per_slave[0]) {
      advance_time(gap_s);
      continue;
    }
    // Alternating symbols: lead at even slots, slave at odd slots.
    cvec lead_wave, slave_wave;
    for (std::size_t p = 0; p < kPairs; ++p) {
      lead_wave.insert(lead_wave.end(), sym.begin(), sym.end());
      lead_wave.insert(lead_wave.end(), phy::kSymbolLen, cplx{});
      slave_wave.insert(slave_wave.end(), phy::kSymbolLen, cplx{});
      slave_wave.insert(slave_wave.end(), sym.begin(), sym.end());
    }
    engine::apply_slave_correction(slave_wave, *sync.per_slave[0],
                                   sync.tx_start, sync.header_t);
    state_.medium.transmit(state_.ap_nodes[0], sync.tx_start, lead_wave);
    const double jitter = state_.rng.gaussian(kTriggerJitterS);
    state_.medium.transmit(state_.ap_nodes[1],
                           sync.tx_start + state_.ap_tx_offset_s[1] + jitter,
                           slave_wave);

    // Client: estimate both channels per pair and form the relative phase.
    const std::size_t total =
        kRxMargin + phy::kPreambleLen +
        static_cast<std::size_t>(kTurnaroundS * fs) +
        lead_wave.size() + 200;
    const cvec buf = state_.medium.receive(state_.client_nodes[0],
                                           sync.header_t - kRxMargin / fs,
                                           total);
    const auto pm = state_.rx.measure_preamble(buf);
    if (!pm) {
      state_.now = sync.tx_start + static_cast<double>(lead_wave.size()) / fs;
      advance_time(gap_s);
      continue;
    }
    const std::size_t header_pos =
        pm->ltf_start >= 192 ? pm->ltf_start - 192 : pm->stf_start;
    const std::size_t wave_at =
        header_pos + phy::kPreambleLen +
        static_cast<std::size_t>(kTurnaroundS * fs);
    // Workspace-backed scratch: the two per-pair FFT windows, each
    // CFO-corrected on its own with its phase origin at sample 0 of buf.
    cplx delta_acc{};
    for (std::size_t p = 0; p < kPairs; ++p) {
      const std::size_t lead_at =
          wave_at + 2 * p * phy::kSymbolLen + phy::kCpLen;
      const std::size_t slave_at = lead_at + phy::kSymbolLen;
      if (buf.size() < slave_at + phy::kNfft) break;
      cvec& fl = state_.ws.meas_win;
      cvec& fsv = state_.ws.meas_freq;
      phy::fft_window_into(buf, lead_at, pm->cfo_hz, fs,
                           static_cast<double>(lead_at), fl);
      phy::fft_window_into(buf, slave_at, pm->cfo_hz, fs,
                           static_cast<double>(slave_at), fsv);
      const phy::ChannelEstimate el = phy::estimate_from_ltf(fl);
      const phy::ChannelEstimate es = phy::estimate_from_ltf(fsv);
      delta_acc += es.mean_ratio(el);
    }
    const double delta = std::arg(delta_acc);
    if (!reference_delta) {
      reference_delta = delta;
    } else {
      deviations.push_back(std::abs(wrap_phase(delta - *reference_delta)));
    }
    state_.now =
        sync.tx_start + static_cast<double>(lead_wave.size() + 200) / fs;
    advance_time(gap_s);
  }
  return deviations;
}

}  // namespace jmb::core
