// Tests for the bit-level PHY pipeline: scrambler, CRC, convolutional
// code + puncturing, Viterbi, interleaver, constellation mapping.
#include <gtest/gtest.h>

#include <algorithm>

#include "dsp/rng.h"
#include "phy/bits.h"
#include "phy/convcode.h"
#include "phy/interleaver.h"
#include "phy/modulation.h"
#include "phy/scrambler.h"
#include "phy/viterbi.h"

namespace jmb::phy {
namespace {

BitVec random_bits(Rng& rng, std::size_t n) {
  BitVec b(n);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  return b;
}

// Terminated-trellis Viterbi decode on fresh scratch.
BitVec viterbi(const std::vector<double>& llr, std::size_t n_info) {
  ViterbiScratch scratch;
  BitVec out;
  viterbi_decode_into(llr, n_info, /*terminated=*/true, scratch, out);
  return out;
}

TEST(Scrambler, IsItsOwnInverse) {
  Rng rng(1);
  const BitVec bits = random_bits(rng, 500);
  const BitVec once = scramble_bits(bits, 0x5D);
  EXPECT_NE(once, bits);
  EXPECT_EQ(scramble_bits(once, 0x5D), bits);
}

TEST(Scrambler, RejectsZeroSeed) {
  EXPECT_THROW(Scrambler(0), std::invalid_argument);
  EXPECT_THROW(Scrambler(0x80), std::invalid_argument);  // masked to 0
}

TEST(Scrambler, SequencePeriod127) {
  Scrambler a(0x7F);
  BitVec first(127), second(127);
  for (auto& b : first) b = a.next_bit();
  for (auto& b : second) b = a.next_bit();
  EXPECT_EQ(first, second);
  // Balanced: a maximal-length 7-bit LFSR emits 64 ones and 63 zeros.
  EXPECT_EQ(std::count(first.begin(), first.end(), 1), 64);
}

TEST(Scrambler, PilotPolarityMatchesStandardPrefix) {
  // 802.11a 17.3.5.9: p starts 1,1,1,1,-1,-1,-1,1 ...
  const double expect[8] = {1, 1, 1, 1, -1, -1, -1, 1};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(pilot_polarity(i), expect[i]) << i;
  }
  EXPECT_EQ(pilot_polarity(0), pilot_polarity(127));  // period 127
}

TEST(Bits, BytesToBitsLsbFirst) {
  const ByteVec bytes{0x01, 0x80};
  const BitVec bits = bytes_to_bits(bytes);
  ASSERT_EQ(bits.size(), 16u);
  EXPECT_EQ(bits[0], 1);  // LSB of 0x01 first
  EXPECT_EQ(bits[7], 0);
  EXPECT_EQ(bits[8], 0);
  EXPECT_EQ(bits[15], 1);  // MSB of 0x80 last
  EXPECT_EQ(bits_to_bytes(bits), bytes);
  EXPECT_THROW((void)bits_to_bytes(BitVec(7, 0)), std::invalid_argument);
}

TEST(ConvCode, KnownImpulseResponse) {
  // A single 1 followed by zeros produces the generator taps.
  const BitVec coded = conv_encode({1, 0, 0, 0, 0, 0, 0});
  ASSERT_EQ(coded.size(), 14u);
  // First output pair: both generators tap the current bit -> (1,1).
  EXPECT_EQ(coded[0], 1);
  EXPECT_EQ(coded[1], 1);
}

TEST(ConvCode, RateHalfDoubles) {
  Rng rng(4);
  const BitVec bits = random_bits(rng, 100);
  EXPECT_EQ(conv_encode(bits).size(), 200u);
}

TEST(ConvCode, PunctureLengths) {
  EXPECT_EQ(punctured_length(100, CodeRate::kHalf), 200u);
  EXPECT_EQ(punctured_length(100, CodeRate::kTwoThirds), 150u);
  EXPECT_EQ(punctured_length(99, CodeRate::kThreeQuarters), 132u);
  EXPECT_THROW((void)punctured_length(99, CodeRate::kTwoThirds),
               std::invalid_argument);
  EXPECT_THROW((void)punctured_length(100, CodeRate::kThreeQuarters),
               std::invalid_argument);
}

TEST(ConvCode, DepunctureInsertsErasures) {
  Rng rng(5);
  const BitVec bits = random_bits(rng, 12);
  const BitVec coded = conv_encode(bits);
  const BitVec punct = puncture(coded, CodeRate::kThreeQuarters);
  EXPECT_EQ(punct.size(), 16u);
  std::vector<double> llr(punct.size());
  for (std::size_t i = 0; i < punct.size(); ++i) llr[i] = punct[i] ? -1.0 : 1.0;
  std::vector<double> dep;
  depuncture_into(llr, 12, CodeRate::kThreeQuarters, dep);
  ASSERT_EQ(dep.size(), 24u);
  // Non-erased positions must carry the original coded bits.
  std::size_t erasures = 0;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    if (dep[i] == 0.0) {
      ++erasures;
    } else {
      EXPECT_EQ(dep[i] < 0, coded[i] == 1);
    }
  }
  EXPECT_EQ(erasures, 8u);
}

class ViterbiRoundTrip : public ::testing::TestWithParam<CodeRate> {};

TEST_P(ViterbiRoundTrip, CleanChannelRecoversBits) {
  const CodeRate rate = GetParam();
  Rng rng(6);
  // n_info divisible by 6 keeps all puncturing patterns happy.
  for (int trial = 0; trial < 10; ++trial) {
    BitVec info = random_bits(rng, 120);
    // Terminate the trellis.
    for (int i = 0; i < 6; ++i) {
      info[info.size() - 1 - static_cast<std::size_t>(i)] = 0;
    }
    const BitVec punct = puncture(conv_encode(info), rate);
    std::vector<double> llr(punct.size());
    for (std::size_t i = 0; i < punct.size(); ++i) {
      llr[i] = punct[i] ? -4.0 : 4.0;
    }
    std::vector<double> dep;
    depuncture_into(llr, info.size(), rate, dep);
    EXPECT_EQ(viterbi(dep, info.size()), info);
  }
}

TEST_P(ViterbiRoundTrip, CorrectsNoisySoftBits) {
  const CodeRate rate = GetParam();
  Rng rng(7);
  int failures = 0;
  for (int trial = 0; trial < 20; ++trial) {
    BitVec info = random_bits(rng, 120);
    for (int i = 0; i < 6; ++i) {
      info[info.size() - 1 - static_cast<std::size_t>(i)] = 0;
    }
    const BitVec punct = puncture(conv_encode(info), rate);
    // BPSK over AWGN at ~5 dB Eb/N0 equivalent.
    std::vector<double> llr(punct.size());
    for (std::size_t i = 0; i < punct.size(); ++i) {
      const double tx = punct[i] ? -1.0 : 1.0;
      llr[i] = 2.0 * (tx + rng.gaussian(0.45));
    }
    std::vector<double> dep;
    depuncture_into(llr, info.size(), rate, dep);
    if (viterbi(dep, info.size()) != info) ++failures;
  }
  // Rate 1/2 should essentially never fail here; punctured rates rarely.
  EXPECT_LE(failures, rate == CodeRate::kHalf ? 0 : 4);
}

INSTANTIATE_TEST_SUITE_P(Rates, ViterbiRoundTrip,
                         ::testing::Values(CodeRate::kHalf,
                                           CodeRate::kTwoThirds,
                                           CodeRate::kThreeQuarters));

TEST(Viterbi, HardDecisionCorrectsErrors) {
  Rng rng(8);
  BitVec info = random_bits(rng, 60);
  for (int i = 0; i < 6; ++i) {
    info[info.size() - 1 - static_cast<std::size_t>(i)] = 0;
  }
  BitVec coded = conv_encode(info);
  // Flip 6 well-separated coded bits: free distance 10 handles these.
  for (std::size_t pos : {3u, 23u, 43u, 63u, 83u, 103u}) coded[pos] ^= 1u;
  // Hard decisions enter the decoder as +-1 LLRs.
  std::vector<double> llr(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) llr[i] = coded[i] ? -1.0 : 1.0;
  EXPECT_EQ(viterbi(llr, info.size()), info);
}

TEST(Viterbi, InputValidation) {
  EXPECT_THROW((void)viterbi(std::vector<double>(10), 6),
               std::invalid_argument);
}

class InterleaverRoundTrip : public ::testing::TestWithParam<Mcs> {};

TEST_P(InterleaverRoundTrip, Bijective) {
  const Mcs mcs = GetParam();
  Rng rng(9);
  const BitVec bits = random_bits(rng, mcs.n_cbps());
  const BitVec inter = interleave(bits, mcs);
  const std::vector<double> soft(inter.begin(), inter.end());
  std::vector<double> back;
  deinterleave_soft_into(soft, mcs, back);
  EXPECT_EQ(BitVec(back.begin(), back.end()), bits);
  // Permutation property: sorted indices are 0..n-1.
  auto perm = interleave_permutation(mcs);
  std::sort(perm.begin(), perm.end());
  for (std::size_t i = 0; i < perm.size(); ++i) EXPECT_EQ(perm[i], i);
}

TEST_P(InterleaverRoundTrip, SoftMatchesHard) {
  const Mcs mcs = GetParam();
  Rng rng(10);
  const BitVec bits = random_bits(rng, mcs.n_cbps());
  const BitVec inter = interleave(bits, mcs);
  std::vector<double> llr(inter.size());
  for (std::size_t i = 0; i < inter.size(); ++i) llr[i] = inter[i] ? -1.0 : 1.0;
  std::vector<double> soft;
  deinterleave_soft_into(llr, mcs, soft);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(soft[i] < 0, bits[i] == 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRates, InterleaverRoundTrip,
    ::testing::ValuesIn(rate_set()),
    [](const ::testing::TestParamInfo<Mcs>& info) {
      return "mcs" + std::to_string(info.index);
    });

TEST(Interleaver, AdjacentBitsSpread) {
  // The point of the interleaver: adjacent coded bits land on
  // non-adjacent subcarriers.
  const Mcs mcs{Modulation::kQam16, CodeRate::kHalf};
  const auto perm = interleave_permutation(mcs);
  for (std::size_t k = 0; k + 1 < perm.size(); ++k) {
    const auto sub_a = perm[k] / mcs.n_bpsc();
    const auto sub_b = perm[k + 1] / mcs.n_bpsc();
    EXPECT_NE(sub_a, sub_b);
  }
}

class ModulationRoundTrip : public ::testing::TestWithParam<Modulation> {};

TEST_P(ModulationRoundTrip, HardDecisionRecovers) {
  const Modulation m = GetParam();
  Rng rng(11);
  const BitVec bits = random_bits(rng, bits_per_symbol(m) * 96);
  const cvec syms = modulate(bits, m);
  EXPECT_EQ(syms.size(), 96u);
  BitVec hard;
  demodulate_hard_into(syms, m, hard);
  EXPECT_EQ(hard, bits);
}

TEST_P(ModulationRoundTrip, UnitAveragePower) {
  const Modulation m = GetParam();
  const cvec& pts = constellation(m);
  double p = 0.0;
  for (const cplx& v : pts) p += std::norm(v);
  EXPECT_NEAR(p / static_cast<double>(pts.size()), 1.0, 1e-12);
}

TEST_P(ModulationRoundTrip, SoftSignsMatchHardBits) {
  const Modulation m = GetParam();
  Rng rng(12);
  const BitVec bits = random_bits(rng, bits_per_symbol(m) * 48);
  const cvec syms = modulate(bits, m);
  std::vector<double> llr;
  demodulate_soft_into(syms, m, rvec(syms.size(), 0.1), llr);
  ASSERT_EQ(llr.size(), bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) {
      EXPECT_LT(llr[i], 0.0) << i;
    } else {
      EXPECT_GT(llr[i], 0.0) << i;
    }
  }
}

TEST_P(ModulationRoundTrip, GrayNeighborsDifferInOneBit) {
  // Gray property: horizontally/vertically adjacent constellation points
  // differ in exactly one bit.
  const Modulation m = GetParam();
  if (m == Modulation::kBpsk) GTEST_SKIP() << "trivial for BPSK";
  const cvec& pts = constellation(m);
  const std::size_t nbits = bits_per_symbol(m);
  const double step = 2.0 * kmod(m);
  for (std::size_t a = 0; a < pts.size(); ++a) {
    for (std::size_t b = 0; b < pts.size(); ++b) {
      const double d = std::abs(pts[a] - pts[b]);
      if (std::abs(d - step) < 1e-9) {
        int diff = 0;
        for (std::size_t k = 0; k < nbits; ++k) {
          if (((a >> k) ^ (b >> k)) & 1u) ++diff;
        }
        EXPECT_EQ(diff, 1) << "points " << a << "," << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMods, ModulationRoundTrip,
                         ::testing::Values(Modulation::kBpsk,
                                           Modulation::kQpsk,
                                           Modulation::kQam16,
                                           Modulation::kQam64));

TEST(Modulation, InputValidation) {
  EXPECT_THROW((void)modulate(BitVec(3, 0), Modulation::kQpsk),
               std::invalid_argument);
  std::vector<double> llr;
  EXPECT_THROW(demodulate_soft_into(cvec(4), Modulation::kBpsk, rvec(3), llr),
               std::invalid_argument);
}

TEST(Params, RateSetValues) {
  const auto& rates = rate_set();
  ASSERT_EQ(rates.size(), 8u);
  // Data bits per 4 us symbol of the classic 6..54 Mb/s ladder at 20 MHz.
  const std::size_t expect_dbps[8] = {24, 36, 48, 72, 96, 144, 192, 216};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rates[i].n_dbps(), expect_dbps[i]) << i;
  }
}

TEST(Params, RateFieldRoundTrip) {
  for (std::size_t i = 0; i < rate_set().size(); ++i) {
    EXPECT_EQ(rate_index_from_field(rate_field_bits(i)), i);
  }
  EXPECT_THROW((void)rate_index_from_field(0b0000), std::invalid_argument);
  EXPECT_THROW((void)rate_field_bits(8), std::invalid_argument);
}

TEST(Params, CarrierLayout) {
  EXPECT_EQ(data_carriers().size(), 48u);
  EXPECT_EQ(pilot_carriers().size(), 4u);
  // No overlap between data and pilot carriers, none at DC.
  for (int d : data_carriers()) {
    EXPECT_NE(d, 0);
    for (int p : pilot_carriers()) EXPECT_NE(d, p);
  }
  EXPECT_EQ(bin_of(-1), 63u);
  EXPECT_EQ(bin_of(1), 1u);
  EXPECT_EQ(bin_of(-26), 38u);
}

TEST(Params, NdbpsTable) {
  EXPECT_EQ((Mcs{Modulation::kBpsk, CodeRate::kHalf}).n_dbps(), 24u);
  EXPECT_EQ((Mcs{Modulation::kQam64, CodeRate::kThreeQuarters}).n_dbps(), 216u);
  EXPECT_EQ((Mcs{Modulation::kQam64, CodeRate::kTwoThirds}).n_dbps(), 192u);
  EXPECT_EQ((Mcs{Modulation::kQam16, CodeRate::kHalf}).n_cbps(), 192u);
}

}  // namespace
}  // namespace jmb::phy
