// AWGN bit-error-rate models per constellation — the basis of effective-SNR
// rate selection (Halperin et al., SIGCOMM'10), which the paper adopts for
// JMB ("MegaMIMO uses the effective SNR algorithm", Section 9).
#pragma once

#include "phy/params.h"

namespace jmb::rate {

/// Gaussian tail Q(x) = P(N(0,1) > x).
[[nodiscard]] double q_function(double x);

/// Uncoded bit error probability at symbol SNR `snr` (linear, Es/N0) for
/// one constellation, using the standard Gray-mapping approximations.
[[nodiscard]] double ber(phy::Modulation m, double snr);

/// Inverse of ber() in SNR: the symbol SNR at which the constellation hits
/// `target_ber`. Solved by bisection; clamped to [1e-6, 1e9]. Throws
/// std::invalid_argument unless 0 < target_ber < 0.5 (so also on NaN).
[[nodiscard]] double snr_for_ber(phy::Modulation m, double target_ber);

/// Closed-form estimate of snr_for_ber(m, target_ber), unclamped: inverts
/// ber = c_m·Q(√(k_m·snr)) through Acklam's normal quantile (relative
/// error below 1.2e-9, so ~2.3e-9 in SNR). NaN when no SNR ≥ 0 reaches
/// the target (target ≥ c_m/2) or the target is not positive. Cheap, but
/// not the bisection's double: effective_snr_bound certifies it.
[[nodiscard]] double snr_for_ber_estimate(phy::Modulation m,
                                          double target_ber);

}  // namespace jmb::rate
