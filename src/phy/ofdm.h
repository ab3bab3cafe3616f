// OFDM symbol assembly on the transmit side: subcarrier mapping, then
// IFFT + cyclic prefix. The receiver strips the prefix, transforms and
// reads the subcarriers back inside its own per-symbol loop
// (phy/receiver.cpp).
//
// The allocating functions wrap the `_into` span kernels, which write
// caller-owned buffers (typically from the per-trial jmb::Workspace)
// without touching the heap, so results are bitwise identical.
#pragma once

#include <span>

#include "dsp/fft_plan.h"
#include "dsp/types.h"
#include "phy/params.h"

namespace jmb::phy {

/// The one kNfft-point FFT plan every OFDM transform runs on, transmit and
/// receive; built on first use and shared by every thread (FftPlan is
/// read-only after construction).
[[nodiscard]] const FftPlan& ofdm_fft_plan();

/// Place 48 data symbols and the 4 pilots (with per-symbol polarity) onto
/// logical subcarriers, returning the kNfft-point frequency-domain symbol.
[[nodiscard]] cvec map_subcarriers(const cvec& data48,
                                   std::size_t symbol_index);

/// IFFT + cyclic prefix: kNfft-point frequency symbol -> kSymbolLen samples.
[[nodiscard]] cvec ofdm_modulate(const cvec& freq_symbol);

/// map_subcarriers() into a caller-owned kNfft span (zeroed here first).
void map_subcarriers_into(std::span<const cplx> data48,
                          std::size_t symbol_index, std::span<cplx> freq);

/// ofdm_modulate() into a caller-owned kSymbolLen span. The IFFT runs in
/// place inside `out`, so no scratch buffer is needed. `out` must not
/// alias `freq_symbol`.
void ofdm_modulate_into(std::span<const cplx> freq_symbol,
                        std::span<cplx> out);

}  // namespace jmb::phy
