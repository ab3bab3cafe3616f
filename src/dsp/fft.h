// Radix-2 FFT/IFFT used by the OFDM modulator and demodulator.
#pragma once

#include <cstddef>

#include "dsp/types.h"

namespace jmb {

/// True iff n is a nonzero power of two (the only sizes this FFT supports).
[[nodiscard]] bool is_pow2(std::size_t n);

/// In-place forward DFT: X[k] = sum_n x[n] e^{-j 2 pi k n / N}.
/// Requires x.size() to be a power of two. No scaling is applied.
void fft_inplace(cvec& x);

/// In-place inverse DFT with 1/N scaling, so ifft(fft(x)) == x.
void ifft_inplace(cvec& x);

/// Out-of-place convenience wrappers.
[[nodiscard]] cvec fft(cvec x);
[[nodiscard]] cvec ifft(cvec x);

}  // namespace jmb
