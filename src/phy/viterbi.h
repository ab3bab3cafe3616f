// Soft-decision Viterbi decoder for the 802.11 K=7 convolutional code.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "phy/convcode.h"
#include "simd/aligned.h"

namespace jmb::phy {

/// Reusable trellis buffers for viterbi_decode_into(). One per workspace;
/// sized on first use and reused across frames without reallocation.
/// Path metrics are cache-line aligned for the batched ACS kernel.
struct ViterbiScratch {
  simd::advec metric;
  simd::advec next_metric;
  /// survivor[step][state] = predecessor state; survivor_bit = input bit.
  std::vector<std::array<std::uint8_t, kNumStates>> survivor;
  std::vector<std::array<std::uint8_t, kNumStates>> survivor_bit;
};

/// Decode `2*n_info` mother-rate soft bits into `n_info` information bits
/// in `out`, with caller-owned scratch — allocation-free once the scratch
/// and `out` are warm.
///
/// LLR convention: llr[i] = log P(bit=0)/P(bit=1); 0 is an erasure (as
/// produced by depuncture_into()). If `terminated` is true the trellis is
/// forced to end in the all-zero state (the framer always appends 6 zero
/// tail bits), otherwise the best end state wins.
void viterbi_decode_into(std::span<const double> llr, std::size_t n_info,
                         bool terminated, ViterbiScratch& scratch,
                         BitVec& out);

}  // namespace jmb::phy
