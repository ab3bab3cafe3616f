#include "core/measurement.h"

#include <cmath>
#include <stdexcept>

#include "dsp/fft_plan.h"
#include "phy/ofdm.h"
#include "phy/preamble.h"
#include "phy/sync.h"
#include "phy/workspace.h"

namespace jmb::core {

std::size_t MeasurementSchedule::cfo_block_offset(std::size_t ap) const {
  if (ap >= n_aps) throw std::invalid_argument("cfo_block_offset: bad ap");
  return phy::kPreambleLen + ap * kCfoSlotLen;
}

std::size_t MeasurementSchedule::chan_symbol_offset(std::size_t ap,
                                                    std::size_t r) const {
  if (ap >= n_aps || r >= rounds) {
    throw std::invalid_argument("chan_symbol_offset: bad slot");
  }
  const std::size_t base = phy::kPreambleLen + n_aps * kCfoSlotLen;
  return base + (r * n_aps + ap) * kChanSymLen;
}

std::size_t MeasurementSchedule::frame_len() const {
  return phy::kPreambleLen + n_aps * kCfoSlotLen + rounds * n_aps * kChanSymLen;
}

std::size_t MeasurementSchedule::reference_offset() const {
  const std::size_t base = phy::kPreambleLen + n_aps * kCfoSlotLen;
  return base + rounds * n_aps * kChanSymLen / 2;
}

cvec MeasurementSchedule::ap_waveform(std::size_t ap) const {
  if (ap >= n_aps) throw std::invalid_argument("ap_waveform: bad ap");
  cvec out(frame_len(), cplx{});
  if (ap == 0) {
    const cvec pre = phy::preamble_time();
    std::copy(pre.begin(), pre.end(), out.begin());
  }
  // CFO block: two bare LTF symbols back to back.
  const cvec& sym = phy::ltf_symbol_time();
  const std::size_t cfo_at = cfo_block_offset(ap);
  std::copy(sym.begin(), sym.end(),
            out.begin() + static_cast<std::ptrdiff_t>(cfo_at));
  std::copy(sym.begin(), sym.end(),
            out.begin() + static_cast<std::ptrdiff_t>(cfo_at + phy::kNfft));
  // Channel symbols: CP + LTF per round.
  const cvec cp_sym = phy::ofdm_modulate(phy::ltf_freq());
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t at = chan_symbol_offset(ap, r);
    std::copy(cp_sym.begin(), cp_sym.end(),
              out.begin() + static_cast<std::ptrdiff_t>(at));
  }
  return out;
}

std::optional<ClientMeasurement> process_measurement_frame(
    const cvec& rx, const MeasurementSchedule& sched, const phy::PhyConfig& cfg,
    Workspace& ws) {
  const phy::Receiver receiver(ws, cfg);
  const auto pm = receiver.measure_preamble(rx);
  if (!pm) return std::nullopt;
  // Reference time = sync-header start. The LTF correlator pinned the
  // header precisely: stf = ltf_start - 192 is more reliable than the
  // detection edge.
  const std::size_t header =
      pm->ltf_start >= 192 ? pm->ltf_start - 192 : pm->stf_start;
  if (rx.size() < header + sched.frame_len()) return std::nullopt;

  constexpr std::size_t kBackoff = 4;  // FFT window back-off into the CP
  const double fs = cfg.sample_rate_hz;

  ClientMeasurement out;
  out.header_start = header;
  out.reference_sample = header + sched.reference_offset();
  out.noise_var = pm->noise_var;
  out.per_ap.resize(sched.n_aps);

  // Scratch windows come from the workspace, so the per-AP/per-round loops
  // below stay off the heap once capacities are warm.
  cvec& win = ws.meas_win;
  cvec& freq = ws.meas_freq;
  const FftPlan& plan = ws.fft_plan(phy::kNfft);

  for (std::size_t ap = 0; ap < sched.n_aps; ++ap) {
    // --- Coarse CFO from the AP's dedicated block (lag-64 correlation).
    const std::size_t cfo_at = header + sched.cfo_block_offset(ap);
    win.assign(rx.begin() + static_cast<std::ptrdiff_t>(cfo_at),
               rx.begin() + static_cast<std::ptrdiff_t>(
                                cfo_at + MeasurementSchedule::kCfoBlockLen));
    double cfo = phy::fine_cfo_hz(win, fs);
    // The lead's preamble supplies an independent estimate; fuse them.
    if (ap == 0) cfo = 0.5 * (cfo + pm->cfo_hz);

    // --- Per-round raw channel estimates, CFO-corrected with phase zero
    // at the snapshot reference (block center), so each estimate lands
    // near the reference phase, off only by residual-CFO * span — and the
    // span from the block center is at most half a block.
    const double ref = static_cast<double>(sched.reference_offset());
    std::vector<phy::ChannelEstimate> raw(sched.rounds);
    std::vector<double> rel_offset(sched.rounds);  // window minus reference
    for (std::size_t r = 0; r < sched.rounds; ++r) {
      const std::size_t at =
          header + sched.chan_symbol_offset(ap, r) + phy::kCpLen - kBackoff;
      rel_offset[r] = static_cast<double>(at - header) - ref;
      phy::fft_window_into(rx, at, cfo, fs, rel_offset[r], plan, freq);
      raw[r] = phy::estimate_from_ltf(freq);
    }

    // --- Refine the CFO by a least-squares fit of the per-round phases
    // (relative to round 0) against their window offsets. The residual
    // after coarse correction is small enough that sequential unwrapping
    // of adjacent differences is unambiguous (|residual * P / fs| << 1/2).
    if (sched.rounds >= 2) {
      rvec psi(sched.rounds, 0.0);
      for (std::size_t r = 1; r < sched.rounds; ++r) {
        const double dphi = std::arg(raw[r].mean_ratio(raw[r - 1]));
        psi[r] = psi[r - 1] + dphi;
      }
      double sx = 0, sy = 0, sxx = 0, sxy = 0;
      for (std::size_t r = 0; r < sched.rounds; ++r) {
        const double x = (rel_offset[r] - rel_offset[0]) / fs;
        sx += x;
        sy += psi[r];
        sxx += x * x;
        sxy += x * psi[r];
      }
      const double nr = static_cast<double>(sched.rounds);
      const double den = nr * sxx - sx * sx;
      const double residual =
          den > 1e-30 ? (nr * sxy - sx * sy) / (kTwoPi * den) : 0.0;
      cfo += residual;
      for (std::size_t r = 0; r < sched.rounds; ++r) {
        raw[r].rotate(-kTwoPi * residual * rel_offset[r] / fs);
      }
    }
    const phy::ChannelEstimate avg = phy::average_estimates(raw);
    out.per_ap[ap].channel = phy::denoise_time_support(avg, ws);
    out.per_ap[ap].cfo_hz = cfo;
  }
  return out;
}

}  // namespace jmb::core
