// Airtime accounting: how long frames, sync headers, channel-measurement
// exchanges and feedback occupy the medium. Feeds throughput computations
// for both the 802.11 baseline and JMB (including JMB's measurement
// overhead, amortized over the channel coherence time as in Section 5).
#pragma once

#include "phy/params.h"

namespace jmb::rate {

struct AirtimeParams {
  double sample_rate_hz = 10e6;
  /// Software/hardware turnaround between the lead's sync header and the
  /// joint transmission (the paper used 150 us on USRP2s).
  double turnaround_s = 150e-6;
  /// Interleaved channel-measurement rounds (repetitions for averaging).
  std::size_t measurement_rounds = 2;
  /// Rate-set index used to send channel feedback frames.
  std::size_t feedback_rate_index = 2;  // QPSK 1/2
  /// Bytes to encode one complex channel coefficient in feedback.
  // 8-bit I + 8-bit Q, as CSI feedback compresses
  std::size_t bytes_per_coefficient = 2;
};

/// Airtime of one standard frame: preamble + SIGNAL + data symbols.
[[nodiscard]] double frame_airtime_s(std::size_t psdu_bytes,
                                     const phy::Mcs& mcs,
                                     double sample_rate_hz);

/// Airtime of a JMB joint data transmission: lead sync header + turnaround
/// + joint LTF + SIGNAL + data symbols.
[[nodiscard]] double joint_frame_airtime_s(std::size_t psdu_bytes,
                                           const phy::Mcs& mcs,
                                           const AirtimeParams& p);

/// Airtime of one JMB channel-measurement phase with `n_aps` APs and
/// `n_clients` clients: sync header + interleaved measurement symbols +
/// per-client feedback frames. Throws std::invalid_argument when
/// p.feedback_rate_index is not a rate_set() index.
[[nodiscard]] double measurement_airtime_s(std::size_t n_aps,
                                           std::size_t n_clients,
                                           const AirtimeParams& p);

}  // namespace jmb::rate
