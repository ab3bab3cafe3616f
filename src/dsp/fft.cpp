#include "dsp/fft.h"

#include <stdexcept>
#include <utility>

namespace jmb {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

namespace {

// Iterative Cooley-Tukey with bit-reversal permutation. `sign` is -1 for the
// forward transform and +1 for the inverse.
void transform(cvec& x, int sign) {
  const std::size_t n = x.size();
  if (!is_pow2(n)) {
    throw std::invalid_argument("fft: size must be a power of two");
  }
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  // Butterflies.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = sign * kTwoPi / static_cast<double>(len);
    const cplx wlen = phasor(ang);
    for (std::size_t i = 0; i < n; i += len) {
      cplx w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx u = x[i + k];
        const cplx v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

}  // namespace

void fft_inplace(cvec& x) { transform(x, -1); }

void ifft_inplace(cvec& x) {
  transform(x, +1);
  const double inv_n = 1.0 / static_cast<double>(x.size());
  for (cplx& v : x) v *= inv_n;
}

cvec fft(cvec x) {
  fft_inplace(x);
  return x;
}

cvec ifft(cvec x) {
  ifft_inplace(x);
  return x;
}

}  // namespace jmb
