#include "core/phase_sync.h"

#include <cmath>
#include <stdexcept>

#include "obs/bounds.h"

namespace jmb::core {

void SlavePhaseSync::set_reference(const phy::ChannelEstimate& h_lead_at_t0,
                                   double t0_seconds) {
  reference_ = h_lead_at_t0;
  t0_ = t0_seconds;
  last_header_phase_.reset();
  last_residual_rad_ = 0.0;
}

void SlavePhaseSync::observe_cfo(double preamble_cfo_hz) {
  cfo_avg_.add(preamble_cfo_hz);
}

void SlavePhaseSync::set_cfo_estimate(double cfo_hz) {
  cfo_avg_.reset();
  cfo_avg_.add(cfo_hz);
}

double SlavePhaseSync::cfo_estimate_hz() const {
  return cfo_avg_.empty() ? 0.0 : cfo_avg_.value();
}

SlaveCorrection SlavePhaseSync::on_sync_header(
    const phy::ChannelEstimate& h_lead_now, double preamble_cfo_hz,
    double t1_seconds) {
  if (!reference_) {
    throw std::logic_error("SlavePhaseSync: no reference channel installed");
  }
  // Direct phase measurement (Section 5.2): the ratio of the two channel
  // observations is e^{j(omega_L - omega_S)(t1 - t0)} including phase
  // noise — exactly the rotation the slave's signal must carry so the
  // client-side channel looks frozen at t0.
  const cplx ratio = h_lead_now.mean_ratio(*reference_);
  SlaveCorrection corr;
  const double mag = std::abs(ratio);
  corr.phasor_at_header = (mag > 1e-15) ? ratio / mag : cplx{1.0, 0.0};

  // Long-term CFO refinement. The preamble correlator gives an unbiased
  // but noisy estimate (hundreds of Hz per shot); the phase progression
  // between consecutive sync headers gives a far finer one once the 2-pi
  // ambiguity is resolved with the current average — the same trick GPS
  // disciplining uses, and what "continuously averaged ... across multiple
  // transmissions" amounts to in practice.
  if (obs_ && !cfo_avg_.empty()) {
    obs_->observe("phase_sync/cfo_innovation_hz", obs::kHzBounds,
                  std::abs(preamble_cfo_hz - cfo_avg_.value()));
  }
  cfo_avg_.add(preamble_cfo_hz);
  const double phase_now = std::arg(corr.phasor_at_header);
  if (last_header_phase_) {
    const double dt = t1_seconds - last_header_t_;
    if (dt > 1e-9) {
      const double coarse = cfo_avg_.value();
      // Residual phase error: how far the header-to-header phase walk
      // strays from the averaged-CFO prediction — the quantity whose
      // distribution the paper's Fig. 7 tracks, and the resilience
      // controller's per-AP health evidence.
      last_residual_rad_ = std::abs(std::remainder(
          phase_now - *last_header_phase_ - kTwoPi * coarse * dt, kTwoPi));
      if (obs_) {
        obs_->observe("phase_sync/residual_phase_rad", obs::kPhaseRadBounds,
                      last_residual_rad_);
      }
      // Expected whole turns between headers at the coarse estimate.
      const double pred_cycles = coarse * dt;
      const double frac = (phase_now - *last_header_phase_) / kTwoPi;
      const double cycles = std::round(pred_cycles - frac) + frac;
      const double refined = cycles / dt;
      // Only trust the refinement when the ambiguity is safely resolved:
      // the coarse error must be well under half a cycle across dt.
      if (std::abs(refined - coarse) * dt < 0.25) {
        cfo_avg_.add(refined);
        cfo_avg_.add(refined);  // weight fine estimates over coarse ones
        if (obs_) obs_->count("phase_sync/refinement_accepted");
      }
    }
  }
  last_header_phase_ = phase_now;
  last_header_t_ = t1_seconds;

  corr.cfo_hz = cfo_avg_.value();
  if (obs_) {
    obs_->count("phase_sync/headers");
    obs_->set_gauge("phase_sync/cfo_estimate_hz", corr.cfo_hz);
  }
  return corr;
}

}  // namespace jmb::core
