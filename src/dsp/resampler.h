// Fractional-delay resampling, used by the channel substrate to apply
// sampling-frequency offset (SFO): a receiver whose ADC clock runs at
// (1 + ppm*1e-6) times the transmitter's DAC clock effectively samples the
// waveform at slowly-drifting fractional positions.
#pragma once

#include <cstddef>

#include "dsp/types.h"

namespace jmb {

/// Evaluate x at fractional position `pos` (in samples) with cubic Lagrange
/// interpolation over the four nearest neighbours. Positions outside the
/// valid support, and NaN, return 0 (silence before/after a burst).
[[nodiscard]] cplx interp_cubic(const cvec& x, double pos);

/// The Catmull-Rom cubic through y1 and y2, at fraction mu of the way from
/// y1 to y2: the formula interp_cubic applies once it has its four
/// neighbours. A caller that already knows the neighbours are interior
/// gets interp_cubic's exact doubles without its edge checks.
[[nodiscard]] inline cplx cubic_segment(cplx y0, cplx y1, cplx y2, cplx y3,
                                        double mu) {
  const cplx a = 0.5 * (-y0 + 3.0 * y1 - 3.0 * y2 + y3);
  const cplx b = y0 - 2.5 * y1 + 2.0 * y2 - 0.5 * y3;
  const cplx c = 0.5 * (y2 - y0);
  return ((a * mu + b) * mu + c) * mu + y1;
}

/// Resample a burst by a clock-ratio: output[n] = x(n * ratio + offset).
/// ratio = 1 + sfo_ppm * 1e-6 models a receiver clock that runs fast (>1)
/// or slow (<1) relative to the transmitter; `offset` is an initial
/// fractional timing offset in samples.
[[nodiscard]] cvec resample(const cvec& x, double ratio, double offset = 0.0);

}  // namespace jmb
