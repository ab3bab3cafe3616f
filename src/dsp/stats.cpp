#include "dsp/stats.h"

#include <algorithm>
#include <stdexcept>

namespace jmb {

double percentile(rvec x, double q) {
  if (x.empty()) throw std::invalid_argument("percentile: empty series");
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("percentile: q outside [0,1]");
  }
  std::sort(x.begin(), x.end());
  const double pos = q * static_cast<double>(x.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, x.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return x[lo] + (x[hi] - x[lo]) * frac;
}

double median(rvec x) { return percentile(std::move(x), 0.5); }

void RunningStats::add(double x) {
  ++n_;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

Ewma::Ewma(double alpha) : alpha_(alpha) {
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument("Ewma: alpha must be in (0,1]");
  }
}

void Ewma::add(double x) {
  if (!initialized_) {
    value_ = x;
    initialized_ = true;
  } else {
    value_ += alpha_ * (x - value_);
  }
}

void Ewma::reset() {
  value_ = 0.0;
  initialized_ = false;
}

}  // namespace jmb
