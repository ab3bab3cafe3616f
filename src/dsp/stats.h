// Summary statistics used by experiment harnesses (medians, percentiles)
// and by estimators (running averages of CFO across packets).
#pragma once

#include <cstddef>

#include "dsp/types.h"

namespace jmb {

/// q-quantile (q in [0,1]) by linear interpolation on the sorted series.
/// Throws on an empty series.
[[nodiscard]] double percentile(rvec x, double q);

/// Median (0.5-quantile).
[[nodiscard]] double median(rvec x);

/// Welford online mean accumulator. Slave APs use this to maintain the
/// "continuously averaged estimate" of their frequency offset to the lead
/// (paper Section 5.2) without storing per-packet history.
class RunningStats {
 public:
  void add(double x);
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
};

/// Exponentially-weighted moving average with configurable smoothing.
/// Used where a long-term average must also track slow drift.
class Ewma {
 public:
  /// alpha in (0,1]: weight of the newest sample.
  explicit Ewma(double alpha);
  void add(double x);
  [[nodiscard]] bool empty() const { return !initialized_; }
  [[nodiscard]] double value() const { return value_; }
  void reset();

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace jmb
