#include "dsp/resampler.h"

#include <cmath>

namespace jmb {

cplx interp_cubic(const cvec& x, double pos) {
  // Four-point Lagrange interpolation around floor(pos). Points that fall
  // within one sample of either edge degrade gracefully to linear/nearest.
  // Written so that NaN fails the test: floor(NaN) has no integer value.
  if (x.empty() || !(pos >= 0.0 && pos <= static_cast<double>(x.size() - 1))) {
    return {0.0, 0.0};
  }
  const auto i1 = static_cast<std::ptrdiff_t>(std::floor(pos));
  const double mu = pos - static_cast<double>(i1);
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());

  const auto at = [&](std::ptrdiff_t i) -> cplx {
    if (i < 0) return x.front();
    if (i >= n) return x.back();
    return x[static_cast<std::size_t>(i)];
  };
  return cubic_segment(at(i1 - 1), at(i1), at(i1 + 1), at(i1 + 2), mu);
}

cvec resample(const cvec& x, double ratio, double offset) {
  if (x.empty()) return {};
  const double last = static_cast<double>(x.size() - 1);
  cvec out;
  out.reserve(x.size());
  for (std::size_t n = 0;; ++n) {
    const double pos = static_cast<double>(n) * ratio + offset;
    if (pos > last) break;
    out.push_back(interp_cubic(x, pos));
    if (out.size() > 4 * x.size() + 16) break;  // guard against ratio ~ 0
  }
  return out;
}

}  // namespace jmb
