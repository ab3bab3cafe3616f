// Decoupled per-client channel measurement (Section 7 + Appendix A).
//
// When a client joins late, its channels are measured at a different time
// than everyone else's, and there is no client-side shared reference.
// JMB instead uses the lead->slave channels as the shared reference: each
// slave rotates its column entry for the late client by its own measured
// lead-phase accumulated between the two measurement times, producing a
// time-invariant composite H that still zero-forces cleanly once each
// slave applies its usual sync-header correction relative to the *first*
// measurement time.
#pragma once

#include "chan/oscillator.h"
#include "core/link_model.h"

namespace jmb::core {

struct DecoupledParams {
  std::size_t n_nodes = 2;            ///< APs == clients == n (single antenna)
  double measurement_spacing_s = 50e-3;  ///< t_c - t_{c-1}
  double measure_snr_db = 25.0;
  double ppm_range = 2.0;
  double carrier_hz = phy::kCarrierHz;
  double phase_noise_linewidth_hz = 0.1;
  /// Slave sync residual at transmit.
  double tx_phase_err_sigma = kCalibratedPhaseSigma;
  /// Operating point: the noise floor is set so the oracle (simultaneous
  /// measurement) system would deliver this post-beamforming SNR — the
  /// paper's method of placing clients by effective SNR. Set <= 0 to use
  /// `noise_power` directly instead.
  double effective_snr_db = 20.0;
  double noise_power = 1.0;
  double link_gain = 100.0;
};

struct DecoupledResult {
  /// Mean post-ZF SINR per client (dB) with the decoupled-composite H.
  rvec sinr_db;
  /// Same transmission precoded from the *naively stitched* H (rows taken
  /// at their own times, no lead-reference correction): the failure mode
  /// the appendix fixes.
  rvec naive_sinr_db;
  /// SINR if all rows had been measured simultaneously (upper bound).
  rvec oracle_sinr_db;
};

/// Throws std::invalid_argument naming the field for fewer than 2 nodes, a
/// non-finite or non-positive link_gain, a non-finite measure_snr_db, or a
/// non-finite or negative measurement_spacing_s.
[[nodiscard]] DecoupledResult run_decoupled(const DecoupledParams& p,
                                            Rng& rng);

}  // namespace jmb::core
