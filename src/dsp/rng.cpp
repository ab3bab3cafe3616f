#include "dsp/rng.h"

namespace jmb {

void Mt19937_64::twist() {
  std::size_t i = 0;
  for (; i < kWords - kShift; ++i) {
    x_[i] = mix(x_[i], x_[i + 1], x_[i + kShift]);
  }
  for (; i < kWords - 1; ++i) {
    x_[i] = mix(x_[i], x_[i + 1], x_[i + kShift - kWords]);
  }
  x_[kWords - 1] = mix(x_[kWords - 1], x_[0], x_[kShift - 1]);
  i_ = 0;
}

}  // namespace jmb
