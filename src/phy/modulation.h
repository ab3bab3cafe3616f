// Gray-coded constellation mapping and soft demapping (802.11a 17.3.5.8).
#pragma once

#include <span>
#include <vector>

#include "dsp/types.h"
#include "phy/params.h"
#include "phy/scrambler.h"  // BitVec

namespace jmb::phy {

/// All points of a constellation (normalized to unit average energy),
/// indexed by the integer whose bits are the mapped bit group (MSB first).
[[nodiscard]] const cvec& constellation(Modulation m);

/// Per-constellation normalization factor K_mod (1, 1/sqrt2, 1/sqrt10,
/// 1/sqrt42).
[[nodiscard]] double kmod(Modulation m);

/// Map bits (size divisible by bits_per_symbol) to symbols, MSB first.
[[nodiscard]] cvec modulate(const BitVec& bits, Modulation m);

// ---- Allocation-free kernels (workspace-owned outputs) -------------------
// modulate() above wraps modulate_into(), so the arithmetic has a single
// implementation. The receive side has only these forms.

/// modulate() into a span of exactly bits.size()/bits_per_symbol entries.
void modulate_into(std::span<const std::uint8_t> bits, Modulation m,
                   std::span<cplx> out);

/// Nearest-point hard decision back to bits, into a reused vector
/// (cleared first; capacity kept, so the call is allocation-free once the
/// buffer is warm).
void demodulate_hard_into(std::span<const cplx> symbols, Modulation m,
                          BitVec& out);

/// Exact max-log LLRs into a reused vector (cleared first): for each bit,
/// llr = (min_{b=1} d^2 - min_{b=0} d^2) / noise_var, positive when bit 0
/// is more likely — matching the Viterbi decoder's convention. Per-symbol
/// noise variances weight each subcarrier after equalization.
void demodulate_soft_into(std::span<const cplx> symbols, Modulation m,
                          std::span<const double> noise_var_per_symbol,
                          std::vector<double>& out);

}  // namespace jmb::phy
