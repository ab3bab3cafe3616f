#include "rate/ber.h"

#include <cmath>
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

}  // namespace jmb::rate
