#include "rate/ber.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace jmb::rate {

double q_function(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

double ber(phy::Modulation m, double snr) {
  if (snr < 0) throw std::invalid_argument("ber: negative SNR");
  using phy::Modulation;
  switch (m) {
    case Modulation::kBpsk:
      return q_function(std::sqrt(2.0 * snr));
    case Modulation::kQpsk:
      return q_function(std::sqrt(snr));
    case Modulation::kQam16: {
      // (4/log2 M)(1 - 1/sqrt M) Q(sqrt(3 snr/(M-1))), M = 16.
      return 0.75 * q_function(std::sqrt(snr / 5.0));
    }
    case Modulation::kQam64: {
      // M = 64.
      return (7.0 / 12.0) * q_function(std::sqrt(snr / 21.0));
    }
  }
  throw std::logic_error("ber: bad modulation");
}

double snr_for_ber(phy::Modulation m, double target_ber) {
  // Written so that a NaN target fails the check too.
  if (!(target_ber > 0.0 && target_ber < 0.5)) {
    throw std::invalid_argument("snr_for_ber: target must be in (0, 0.5)");
  }
  double lo = 1e-6, hi = 1e9;
  for (int it = 0; it < 200; ++it) {
    const double mid = std::sqrt(lo * hi);  // geometric bisection
    // An iteration that would move neither end is a fixed point: every
    // later one recomputes the same mid and takes the same branch, so
    // stopping there (after ~60) returns exactly what 200 iterations would.
    if (ber(m, mid) > target_ber) {
      if (mid == lo) break;
      lo = mid;
    } else {
      if (mid == hi) break;
      hi = mid;
    }
  }
  return std::sqrt(lo * hi);
}

namespace {

/// Acklam's rational approximation of the standard normal quantile
/// Phi^-1(p) on the lower half, 0 < p <= 0.5 (relative error < 1.15e-9).
double normal_quantile_lower(double p) {
  constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                          -2.759285104469687e+02, 1.383577518672690e+02,
                          -3.066479806614716e+01, 2.506628277459239e+00};
  constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                          -1.556989798598866e+02, 6.680131188771972e+01,
                          -1.328068155288572e+01};
  constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                          -2.400758277161838e+00, -2.549732539343734e+00,
                          4.374664141464968e+00,  2.938163982698783e+00};
  constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                          2.445134137142996e+00, 3.754408661907416e+00};
  if (p < 0.02425) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

}  // namespace

double snr_for_ber_estimate(phy::Modulation m, double target_ber) {
  // ber = scale·Q(√(snr / per_snr)), as in ber() above.
  using phy::Modulation;
  double scale = 1.0, per_snr = 1.0;
  switch (m) {
    case Modulation::kBpsk: per_snr = 0.5; break;
    case Modulation::kQpsk: break;
    case Modulation::kQam16: scale = 0.75; per_snr = 5.0; break;
    case Modulation::kQam64: scale = 7.0 / 12.0; per_snr = 21.0; break;
  }
  const double p = target_ber / scale;
  // Written so that a NaN target fails the check too.
  if (!(p > 0.0 && p < 0.5)) return std::numeric_limits<double>::quiet_NaN();
  const double y = normal_quantile_lower(p);  // = -Q^-1(p)
  return y * y * per_snr;
}

}  // namespace jmb::rate
