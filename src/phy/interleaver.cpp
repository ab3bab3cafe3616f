#include "phy/interleaver.h"

#include <algorithm>
#include <stdexcept>

namespace jmb::phy {

std::vector<std::size_t> interleave_permutation(const Mcs& mcs) {
  const std::size_t n_cbps = mcs.n_cbps();
  const std::size_t n_bpsc = mcs.n_bpsc();
  const std::size_t s = std::max<std::size_t>(n_bpsc / 2, 1);
  std::vector<std::size_t> perm(n_cbps);
  for (std::size_t k = 0; k < n_cbps; ++k) {
    // First permutation (17-17).
    const std::size_t i = (n_cbps / 16) * (k % 16) + k / 16;
    // Second permutation (17-18).
    const std::size_t j =
        s * (i / s) + (i + n_cbps - (16 * i) / n_cbps) % s;
    perm[k] = j;
  }
  return perm;
}

const std::vector<std::size_t>& cached_interleave_permutation(const Mcs& mcs) {
  // The permutation depends only on n_cbps/n_bpsc, i.e. the modulation.
  // Static initialization is thread-safe and the tables are immutable, so
  // concurrent trials share them without a lock.
  static const std::vector<std::size_t> kBpsk =
      interleave_permutation({Modulation::kBpsk, CodeRate::kHalf});
  static const std::vector<std::size_t> kQpsk =
      interleave_permutation({Modulation::kQpsk, CodeRate::kHalf});
  static const std::vector<std::size_t> kQam16 =
      interleave_permutation({Modulation::kQam16, CodeRate::kHalf});
  static const std::vector<std::size_t> kQam64 =
      interleave_permutation({Modulation::kQam64, CodeRate::kHalf});
  switch (mcs.modulation) {
    case Modulation::kBpsk: return kBpsk;
    case Modulation::kQpsk: return kQpsk;
    case Modulation::kQam16: return kQam16;
    case Modulation::kQam64: return kQam64;
  }
  throw std::invalid_argument("cached_interleave_permutation: bad modulation");
}

BitVec interleave(const BitVec& bits, const Mcs& mcs) {
  if (bits.size() != mcs.n_cbps()) {
    throw std::invalid_argument("interleave: need exactly n_cbps bits");
  }
  const auto& perm = cached_interleave_permutation(mcs);
  BitVec out(bits.size());
  for (std::size_t k = 0; k < bits.size(); ++k) out[perm[k]] = bits[k];
  return out;
}

void deinterleave_soft_into(std::span<const double> llr, const Mcs& mcs,
                            std::vector<double>& out) {
  if (llr.size() != mcs.n_cbps()) {
    throw std::invalid_argument(
        "deinterleave_soft_into: need exactly n_cbps values");
  }
  const auto& perm = cached_interleave_permutation(mcs);
  out.assign(llr.size(), 0.0);
  for (std::size_t k = 0; k < llr.size(); ++k) out[k] = llr[perm[k]];
}

}  // namespace jmb::phy
