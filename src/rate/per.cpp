#include "rate/per.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace jmb::rate {

double frame_error_prob(EffectiveSnrs& link, std::size_t rate_index,
                        std::size_t psdu_bytes) {
  if (rate_index >= phy::rate_set().size()) {
    throw std::invalid_argument("frame_error_prob: bad rate index");
  }
  const double eff_db = link.db(phy::rate_set()[rate_index].modulation);
  const double margin = eff_db - rate_thresholds_db()[rate_index];
  // Waterfall anchored at 10% PER for 1500 bytes, one decade per dB.
  double per = 0.1 * std::pow(10.0, -margin);
  // Longer frames expose more bits; shorter ones fewer (linear in length
  // for small PER).
  per *= static_cast<double>(psdu_bytes) / 1500.0;
  return std::clamp(per, 0.0, 1.0);
}

double frame_error_prob(const rvec& subcarrier_snr, std::size_t rate_index,
                        std::size_t psdu_bytes) {
  EffectiveSnrs link(subcarrier_snr);
  return frame_error_prob(link, rate_index, psdu_bytes);
}

double frame_error_prob_flat(double snr_db, std::size_t rate_index,
                             std::size_t psdu_bytes) {
  return frame_error_prob(rvec(phy::kNumDataCarriers, from_db(snr_db)),
                          rate_index, psdu_bytes);
}

}  // namespace jmb::rate
