// 802.11a block interleaver (17.3.5.7): two permutations over one OFDM
// symbol's worth of coded bits, spreading adjacent bits across subcarriers
// and across constellation bit positions.
#pragma once

#include <span>
#include <vector>

#include "phy/params.h"
#include "phy/scrambler.h"  // BitVec

namespace jmb::phy {

/// Interleave one OFDM symbol of coded bits (size must equal n_cbps).
[[nodiscard]] BitVec interleave(const BitVec& bits, const Mcs& mcs);

/// The composite permutation: out[perm[k]] = in[k] for interleave.
[[nodiscard]] std::vector<std::size_t> interleave_permutation(const Mcs& mcs);

/// Shared immutable permutation table (one per modulation order — the
/// permutation does not depend on the code rate). Built once, so per-symbol
/// interleaving never allocates.
[[nodiscard]] const std::vector<std::size_t>& cached_interleave_permutation(
    const Mcs& mcs);

/// Inverse permutation on soft values (LLRs), into a reused vector
/// (cleared first; allocation-free once the buffer is warm).
void deinterleave_soft_into(std::span<const double> llr, const Mcs& mcs,
                            std::vector<double>& out);

}  // namespace jmb::phy
