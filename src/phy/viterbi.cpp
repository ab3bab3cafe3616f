#include "phy/viterbi.h"

#include <array>
#include <bit>
#include <limits>
#include <stdexcept>

#include "simd/kernels.h"

namespace jmb::phy {

static_assert(kNumStates == simd::kViterbiStates);

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Static trellis: for each (state, input) the successor state and the two
// mother-code output bits, matching conv_encode()'s shift convention
// (current bit enters at the high end of the 7-bit window).
struct Trellis {
  // next[state][bit], outA[state][bit], outB[state][bit]
  std::array<std::array<std::uint8_t, 2>, kNumStates> next{};
  std::array<std::array<std::uint8_t, 2>, kNumStates> out_a{};
  std::array<std::array<std::uint8_t, 2>, kNumStates> out_b{};
};

std::uint8_t parity7(unsigned x) {
  return static_cast<std::uint8_t>(std::popcount(x & 0x7Fu) & 1);
}

const Trellis& trellis() {
  static const Trellis kT = [] {
    Trellis t;
    for (unsigned s = 0; s < kNumStates; ++s) {
      for (unsigned b = 0; b < 2; ++b) {
        const unsigned window = (b << 6) | s;
        t.next[s][b] = static_cast<std::uint8_t>(window >> 1);
        t.out_a[s][b] = parity7(window & kGenA);
        t.out_b[s][b] = parity7(window & kGenB);
      }
    }
    return t;
  }();
  return kT;
}

// Branch-metric sign table for the dispatched ACS kernel. Next state
// ns = (b << 5) | m has exactly two predecessors, 2m (even) and 2m + 1
// (odd), both hypothesizing input bit b; the branch metric contribution
// of coded output bit X is +llr when the trellis emits 0 and -llr when it
// emits 1, i.e. sign * llr with sign in {+1.0, -1.0}. Multiplying by
// ±1.0 is exact, so the kernel's sign-table form is bitwise the ternary
// `out ? -l : l` of the sequential reference. Layout: for b in {0, 1},
// four blocks of 32 — A-even, A-odd, B-even, B-odd.
const std::array<double, 4 * kNumStates>& acs_sign_table() {
  alignas(64) static const std::array<double, 4 * kNumStates> kS = [] {
    std::array<double, 4 * kNumStates> s{};
    const Trellis& t = trellis();
    constexpr std::size_t kHalf = kNumStates / 2;
    for (unsigned b = 0; b < 2; ++b) {
      const std::size_t base = b * 4 * kHalf;
      for (std::size_t m = 0; m < kHalf; ++m) {
        s[base + m] = t.out_a[2 * m][b] ? -1.0 : 1.0;
        s[base + kHalf + m] = t.out_a[2 * m + 1][b] ? -1.0 : 1.0;
        s[base + 2 * kHalf + m] = t.out_b[2 * m][b] ? -1.0 : 1.0;
        s[base + 3 * kHalf + m] = t.out_b[2 * m + 1][b] ? -1.0 : 1.0;
      }
    }
    return s;
  }();
  return kS;
}

}  // namespace

void viterbi_decode_into(std::span<const double> llr, std::size_t n_info,
                         bool terminated, ViterbiScratch& scratch,
                         BitVec& out) {
  if (llr.size() != 2 * n_info) {
    throw std::invalid_argument("viterbi_decode_into: need 2*n_info soft bits");
  }
  scratch.metric.assign(kNumStates, kNegInf);
  scratch.metric[0] = 0.0;  // encoder starts in the all-zero state
  scratch.next_metric.resize(kNumStates);
  scratch.survivor.resize(n_info);
  scratch.survivor_bit.resize(n_info);
  auto& metric = scratch.metric;
  auto& next_metric = scratch.next_metric;
  auto& survivor = scratch.survivor;
  auto& survivor_bit = scratch.survivor_bit;

  // Add-compare-select via the dispatched kernel, batched across the
  // independent next-states of the trellis butterfly. Branch metric:
  // +llr/2 if the hypothesized coded bit is 0, -llr/2 if it is 1
  // -> (1 - 2c) * llr / 2; constants cancel, so (1 - 2c) * llr directly
  // (realized as the ±1.0 sign table — see acs_sign_table()). Candidate
  // order, the tie-keeps-even strict compare, and -inf propagation all
  // match the sequential reference, so decodes are bitwise identical on
  // every backend.
  const double* const signs = acs_sign_table().data();
  const simd::Kernels& kern = simd::active_kernels();
  for (std::size_t step = 0; step < n_info; ++step) {
    kern.viterbi_acs(metric.data(), signs, llr[2 * step], llr[2 * step + 1],
                     next_metric.data(), survivor[step].data(),
                     survivor_bit[step].data());
    metric.swap(next_metric);
  }

  // Pick the final state.
  unsigned state = 0;
  if (!terminated) {
    double best = kNegInf;
    for (unsigned s = 0; s < kNumStates; ++s) {
      if (metric[s] > best) {
        best = metric[s];
        state = s;
      }
    }
  } else if (metric[0] == kNegInf) {
    // Terminated trellis unreachable (shouldn't happen with n_info >= 6);
    // fall back to best-state decoding.
    double best = kNegInf;
    for (unsigned s = 0; s < kNumStates; ++s) {
      if (metric[s] > best) {
        best = metric[s];
        state = s;
      }
    }
  }

  // Trace back.
  out.assign(n_info, 0);
  for (std::size_t step = n_info; step-- > 0;) {
    out[step] = survivor_bit[step][state];
    state = survivor[step][state];
  }
}

}  // namespace jmb::phy
