// Distributed phase synchronization — the paper's core contribution
// (Sections 4 and 5.2).
//
// Each slave AP keeps:
//  * a *reference* measurement of the lead->slave channel taken at the
//    channel-measurement time t0, and
//  * a long-term averaged estimate of its frequency offset to the lead,
//    refined on every sync header ("MegaMIMO APs maintain a continuously
//    averaged estimate of their offset with the lead transmitter across
//    multiple transmissions").
//
// Before every joint data transmission the slave re-measures the lead
// channel from the sync header and corrects its transmission by the
// *directly measured* phase ratio h_lead(t)/h_lead(0) — no accumulated
// error — then tracks phase through the packet with the averaged CFO.
#pragma once

#include <optional>

#include "dsp/stats.h"
#include "obs/sink.h"
#include "phy/receiver.h"

namespace jmb::core {

/// Correction a slave applies to its transmit baseband.
struct SlaveCorrection {
  cplx phasor_at_header{1.0, 0.0};  ///< e^{j (omega_L - omega_S)(t1 - t0)}
  double cfo_hz = 0.0;  ///< averaged f_L - f_S for in-packet tracking

  /// Rotation to apply at `dt` seconds after the sync-header measurement.
  [[nodiscard]] cplx at(double dt_seconds) const {
    return phasor_at_header * phasor(kTwoPi * cfo_hz * dt_seconds);
  }
};

class SlavePhaseSync {
 public:
  /// Install the reference channel captured during the channel-measurement
  /// phase (time t0). Clears nothing else: the CFO average persists, as it
  /// should for infrastructure nodes.
  void set_reference(const phy::ChannelEstimate& h_lead_at_t0,
                     double t0_seconds);

  [[nodiscard]] bool has_reference() const { return reference_.has_value(); }

  /// Feed one sync-header observation (channel + the preamble's CFO
  /// estimate) at time t1. Updates the long-term CFO average — including
  /// the cross-header phase-ratio refinement (resolving the 2-pi ambiguity
  /// with the current average) — and returns the correction to apply to
  /// the upcoming joint transmission. Requires a reference.
  [[nodiscard]] SlaveCorrection on_sync_header(
      const phy::ChannelEstimate& h_lead_now, double preamble_cfo_hz,
      double t1_seconds);

  /// Feed a CFO observation without transmitting (e.g. overheard lead
  /// traffic) to warm up the average.
  void observe_cfo(double preamble_cfo_hz);

  /// Seed the average with a high-precision estimate (the slave processes
  /// the lead's interleaved measurement symbols exactly like a client,
  /// giving ~10 Hz accuracy from the long time span). Re-initializes the
  /// long-term average; later sync headers refine from there.
  void set_cfo_estimate(double cfo_hz);

  /// Current long-term CFO estimate (f_lead - f_slave as seen at the
  /// slave's downconverter), 0 before any observation.
  [[nodiscard]] double cfo_estimate_hz() const;

  /// Publish per-header telemetry (CFO innovation, residual phase error)
  /// into `sink`'s registry (null detaches). Caller keeps ownership.
  void attach_obs(const obs::ObsSink* sink) { obs_ = sink; }

  /// Telemetry from the most recent on_sync_header(): how far the
  /// header-to-header phase walk strayed from the averaged-CFO prediction
  /// (0 until two headers have been seen). The resilience controller
  /// consumes it as per-AP sync-health evidence.
  [[nodiscard]] double last_residual_rad() const { return last_residual_rad_; }

 private:
  /// EWMA weight for the long-term CFO average (small = long memory;
  /// infrastructure CFOs are stable, per Section 5.3).
  static constexpr double kCfoAlpha = 0.05;

  const obs::ObsSink* obs_ = nullptr;
  std::optional<phy::ChannelEstimate> reference_;
  double t0_ = 0.0;
  Ewma cfo_avg_{kCfoAlpha};

  /// Previous sync-header phase sample for the ratio-based refinement.
  std::optional<double> last_header_phase_;
  double last_header_t_ = 0.0;

  double last_residual_rad_ = 0.0;
};

}  // namespace jmb::core
