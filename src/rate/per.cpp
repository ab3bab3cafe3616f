#include "rate/per.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace jmb::rate {

namespace {

const phy::Mcs& checked_rate(const char* who, std::size_t rate_index) {
  if (rate_index >= phy::rate_set().size()) {
    throw std::invalid_argument(std::string(who) + ": bad rate index");
  }
  return phy::rate_set()[rate_index];
}

/// The waterfall at effective SNR `eff_db`. Nonincreasing in eff_db up to
/// pow's sub-ulp wobble, which kBoundPerGuard covers.
double per_at(double eff_db, std::size_t rate_index, std::size_t psdu_bytes) {
  const double margin = eff_db - rate_thresholds_db()[rate_index];
  // Waterfall anchored at 10% PER for 1500 bytes, one decade per dB.
  double per = 0.1 * std::pow(10.0, -margin);
  // Longer frames expose more bits; shorter ones fewer (linear in length
  // for small PER).
  per *= static_cast<double>(psdu_bytes) / 1500.0;
  return std::clamp(per, 0.0, 1.0);
}

}  // namespace

double frame_error_prob(EffectiveSnrs& link, std::size_t rate_index,
                        std::size_t psdu_bytes) {
  const phy::Mcs& mcs = checked_rate("frame_error_prob", rate_index);
  return per_at(link.db(mcs.modulation), rate_index, psdu_bytes);
}

double frame_error_prob(const rvec& subcarrier_snr, std::size_t rate_index,
                        std::size_t psdu_bytes) {
  EffectiveSnrs link(subcarrier_snr);
  return frame_error_prob(link, rate_index, psdu_bytes);
}

bool delivered(EffectiveSnrs& link, std::size_t rate_index,
               std::size_t psdu_bytes, double u) {
  const phy::Mcs& mcs = checked_rate("delivered", rate_index);
  const EffectiveSnrBound& b = link.bound(mcs.modulation);
  if (!b.exact) {
    // The bracket's low end bounds the PER from above, its high end from
    // below.
    if (u >= per_at(b.lo_db, rate_index, psdu_bytes) * (1.0 + kBoundPerGuard)) {
      return true;
    }
    if (u < per_at(b.hi_db, rate_index, psdu_bytes) * (1.0 - kBoundPerGuard)) {
      return false;
    }
  }
  return u >= frame_error_prob(link, rate_index, psdu_bytes);
}

}  // namespace jmb::rate
