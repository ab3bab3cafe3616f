// 802.11n compatibility (Section 6): off-the-shelf clients cannot receive
// JMB's interleaved measurement frames and can only sound as many transmit
// antennas at once as they have receive chains. MegaMIMO "tricks" them by
// sending a series of standard two-stream soundings that always include
// one fixed *reference antenna* (L1). Between soundings, the accumulated
// lead-client phase (from the repeated L1 measurements) and the
// accumulated lead-slave phase (from the slave's own sync-header
// measurements) are both observable; their difference rotates every
// slave-antenna measurement back to the reference time t0 (Section 6.2).
//
// This module simulates that protocol at channel-matrix level: true
// channels, per-node oscillators with phase noise, per-sounding estimation
// noise — exercising exactly the bookkeeping the paper introduces, and
// reporting both reconstruction accuracy and the post-beamforming SINRs
// that drive the Fig. 12/13 throughput results.
#pragma once

#include "chan/oscillator.h"
#include "core/link_model.h"

namespace jmb::core {

/// The Section 11.5 testbed is fixed: two 2-antenna APs (AP 0 is the
/// lead) and two 2-antenna 802.11n clients; compat11n.cpp holds its
/// constants. Only the operating point varies.
struct Compat11nParams {
  /// Noise floor set so joint ZF would deliver this post-beamforming SNR
  /// with a perfect snapshot (dB).
  double effective_snr_db = 20.0;
  /// Mean link power gain (flat across clients here; benches scale it to
  /// hit the paper's SNR bands).
  double link_gain = 100.0;
};

struct Compat11nResult {
  /// Max relative error |H_hat - H(t0)|/|H(t0)| over subcarriers after
  /// row-phase alignment (rows carry an arbitrary client-common phase).
  double reconstruction_rel_err = 0.0;
  /// Same protocol *without* the reference-antenna correction (naive
  /// stitching of soundings taken at different times) — shows why the
  /// trick is needed.
  double naive_rel_err = 0.0;
  /// Post-joint-ZF per-subcarrier SINRs per receive antenna (streams map
  /// 1:1 onto receive antennas): [rx_antenna][subcarrier], linear.
  std::vector<rvec> jmb_stream_sinr;
  /// Baseline 802.11n: per-stream post-receiver-ZF SNRs when the client's
  /// best AP sends it 2 streams: [rx_antenna][subcarrier].
  std::vector<rvec> baseline_stream_snr;
};

/// Run one end-to-end compat measurement + joint transmission evaluation.
/// Throws std::invalid_argument naming the field for a non-finite or
/// non-positive link_gain or a non-finite effective_snr_db.
[[nodiscard]] Compat11nResult run_compat11n(const Compat11nParams& p,
                                            Rng& rng);

/// Receiver-side zero-forcing stream SNRs for an n_rx x n_streams MIMO
/// channel with per-stream transmit power `power`: stream j gets
/// power / ([ (H^H H)^{-1} ]_jj * noise). Exposed for tests and for the
/// 802.11n baseline model.
[[nodiscard]] rvec rx_zf_stream_snrs(const CMatrix& h, double power,
                                     double noise_power);

}  // namespace jmb::core
