// AWGN bit-error-rate models per constellation — the basis of effective-SNR
// rate selection (Halperin et al., SIGCOMM'10), which the paper adopts for
// JMB ("MegaMIMO uses the effective SNR algorithm", Section 9).
#pragma once

#include "phy/params.h"

namespace jmb::rate {

/// ber(m, snr) = scale·Q(√(snr / per_snr)) = scale·½·erfc(√(snr·k)) with
/// k = 1/(2·per_snr): the Gray-mapping approximation's two constants.
struct BerCurve {
  double scale = 1.0;
  double per_snr = 1.0;
};

/// The constants of modulation m's curve.
[[nodiscard]] BerCurve ber_curve(phy::Modulation m);

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

/// Every piece of the erfc table is within this relative distance of erfc
/// (the Lagrange remainder of its exact-coefficient polynomial, bounded
/// per piece as the table is built).
inline constexpr double kErfcTableRemainder = 5e-11;

/// erfc on [0, 8.5) as simd::Kernels::erfc_sqrt's table: a degree-8
/// Taylor expansion about the centre of each 1/32-wide piece, its
/// coefficients built once (on first use, thread-safe) in long double
/// from erfc⁽ⁿ⁾(y) = (−1)ⁿ(2/√π)Hₙ₋₁(y)e^{−y²} (physicists' Hermite
/// polynomials, by their recursion) and rounded to double. Building it
/// throws std::logic_error if a piece's remainder bound exceeds
/// kErfcTableRemainder. 19.6 KB.
[[nodiscard]] const double* erfc_table();

}  // namespace jmb::rate
