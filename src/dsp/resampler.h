// Fractional-delay interpolation, used by the channel substrate to apply
// sampling-frequency offset (SFO): a receiver whose ADC clock runs at
// (1 + ppm*1e-6) times the transmitter's DAC clock effectively samples the
// waveform at slowly-drifting fractional positions.
#pragma once

#include "dsp/types.h"

namespace jmb {

/// The Catmull-Rom cubic through y1 and y2, at fraction mu of the way from
/// y1 to y2, given the neighbours y0 before and y3 after.
[[nodiscard]] inline cplx cubic_segment(cplx y0, cplx y1, cplx y2, cplx y3,
                                        double mu) {
  const cplx a = 0.5 * (-y0 + 3.0 * y1 - 3.0 * y2 + y3);
  const cplx b = y0 - 2.5 * y1 + 2.0 * y2 - 0.5 * y3;
  const cplx c = 0.5 * (y2 - y0);
  return ((a * mu + b) * mu + c) * mu + y1;
}

}  // namespace jmb
