// Unit tests for the DSP substrate: FFT, statistics, RNG, resampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/resampler.h"
#include "dsp/rng.h"
#include "dsp/stats.h"
#include "dsp/types.h"

namespace jmb {
namespace {

constexpr double kTol = 1e-10;

TEST(Types, DbRoundTrip) {
  EXPECT_NEAR(to_db(100.0), 20.0, kTol);
  EXPECT_NEAR(from_db(20.0), 100.0, kTol);
  EXPECT_NEAR(from_db(to_db(3.7)), 3.7, kTol);
  EXPECT_NEAR(amp_to_db(10.0), 20.0, kTol);
}

TEST(Types, WrapPhase) {
  EXPECT_NEAR(wrap_phase(0.0), 0.0, kTol);
  EXPECT_NEAR(wrap_phase(kPi / 2), kPi / 2, kTol);
  EXPECT_NEAR(wrap_phase(kTwoPi + 0.1), 0.1, kTol);
  EXPECT_NEAR(wrap_phase(-kTwoPi - 0.1), -0.1, kTol);
  // At the +-pi boundary floating point may land on either representative.
  EXPECT_NEAR(std::abs(wrap_phase(3 * kPi)), kPi, kTol);
  // Result is always in (-pi, pi].
  for (double phi = -20.0; phi <= 20.0; phi += 0.37) {
    const double w = wrap_phase(phi);
    EXPECT_GT(w, -kPi - kTol);
    EXPECT_LE(w, kPi + kTol);
    // And equal to the input modulo 2*pi.
    EXPECT_NEAR(std::remainder(w - phi, kTwoPi), 0.0, 1e-9);
  }
}

TEST(Types, MeanPowerAndEnergy) {
  const cvec x{{3.0, 4.0}, {0.0, 0.0}};  // |3+4j|^2 = 25
  EXPECT_NEAR(mean_power(x), 12.5, kTol);
  EXPECT_NEAR(energy(x), 25.0, kTol);
  EXPECT_EQ(mean_power(cvec{}), 0.0);
}

TEST(Fft, RejectsNonPow2) {
  cvec x(12, cplx{1.0, 0.0});
  EXPECT_THROW(fft_inplace(x), std::invalid_argument);
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(64));
}

TEST(Fft, DeltaIsFlat) {
  cvec x(64);
  x[0] = 1.0;
  const cvec X = fft(x);
  for (const cplx& v : X) {
    EXPECT_NEAR(v.real(), 1.0, kTol);
    EXPECT_NEAR(v.imag(), 0.0, kTol);
  }
}

TEST(Fft, SingleToneLandsOnItsBin) {
  const std::size_t n = 64;
  const std::size_t k0 = 5;
  cvec x(n);
  for (std::size_t t = 0; t < n; ++t) {
    x[t] = phasor(kTwoPi * static_cast<double>(k0 * t) /
                  static_cast<double>(n));
  }
  const cvec X = fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    const double expected = (k == k0) ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(X[k]), expected, 1e-9) << "bin " << k;
  }
}

TEST(Fft, InverseRoundTrip) {
  Rng rng(42);
  for (std::size_t n : {2u, 8u, 64u, 256u, 1024u}) {
    const cvec x = rng.cgaussian_vec(n);
    const cvec y = ifft(fft(x));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-9);
    }
  }
}

TEST(Fft, ParsevalEnergyConservation) {
  Rng rng(7);
  const cvec x = rng.cgaussian_vec(128);
  const cvec X = fft(x);
  EXPECT_NEAR(energy(X), 128.0 * energy(x), 1e-7);
}

TEST(Fft, LinearityProperty) {
  Rng rng(9);
  const cvec a = rng.cgaussian_vec(64);
  const cvec b = rng.cgaussian_vec(64);
  const cplx alpha{0.3, -1.2};
  cvec combo(64);
  for (std::size_t i = 0; i < 64; ++i) combo[i] = a[i] + alpha * b[i];
  const cvec lhs = fft(combo);
  const cvec fa = fft(a);
  const cvec fb = fft(b);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(std::abs(lhs[i] - (fa[i] + alpha * fb[i])), 0.0, 1e-9);
  }
}

TEST(Stats, PercentileInterpolates) {
  const rvec x{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_NEAR(percentile(x, 0.0), 1.0, kTol);
  EXPECT_NEAR(percentile(x, 1.0), 5.0, kTol);
  EXPECT_NEAR(percentile(x, 0.5), 3.0, kTol);
  EXPECT_NEAR(percentile(x, 0.25), 2.0, kTol);
  EXPECT_NEAR(percentile(x, 0.125), 1.5, kTol);
  EXPECT_NEAR(median(rvec{3.0, 1.0, 2.0}), 2.0, kTol);
  EXPECT_THROW((void)percentile(rvec{}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)percentile(rvec{1.0}, 1.5), std::invalid_argument);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Rng rng(11);
  rvec x(1000);
  RunningStats rs;
  double sum = 0.0;
  for (double& v : x) {
    v = rng.gaussian(2.5) + 1.0;
    rs.add(v);
    sum += v;
  }
  EXPECT_EQ(rs.count(), 1000u);
  EXPECT_NEAR(rs.mean(), sum / 1000.0, 1e-9);
}

TEST(Stats, EwmaConvergesToConstant) {
  Ewma e(0.1);
  EXPECT_TRUE(e.empty());
  for (int i = 0; i < 500; ++i) e.add(7.0);
  EXPECT_FALSE(e.empty());
  EXPECT_NEAR(e.value(), 7.0, 1e-9);
  EXPECT_THROW(Ewma(0.0), std::invalid_argument);
  EXPECT_THROW(Ewma(1.5), std::invalid_argument);
}

TEST(Stats, EwmaTracksStep) {
  Ewma e(0.5);
  e.add(0.0);
  e.add(10.0);  // 5.0
  EXPECT_NEAR(e.value(), 5.0, kTol);
  e.add(10.0);  // 7.5
  EXPECT_NEAR(e.value(), 7.5, kTol);
}

TEST(Rng, Reproducible) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, ForkIndependence) {
  Rng parent(5);
  Rng c1 = parent.fork();
  Rng c2 = parent.fork();
  // Children look different from each other.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1.next_u64() == c2.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, GaussianMoments) {
  Rng rng(77);
  RunningStats rs, power;
  for (int i = 0; i < 20000; ++i) {
    const double g = rng.gaussian(3.0);
    rs.add(g);
    power.add(g * g);
  }
  EXPECT_NEAR(rs.mean(), 0.0, 0.1);
  EXPECT_NEAR(std::sqrt(power.mean()), 3.0, 0.1);
}

TEST(Rng, ComplexGaussianVariance) {
  Rng rng(78);
  RunningStats power;
  for (int i = 0; i < 20000; ++i) power.add(std::norm(rng.cgaussian(2.0)));
  EXPECT_NEAR(power.mean(), 2.0, 0.1);
}

TEST(Rng, GaussianKeepsTheStdStreamAndAcceptsZero) {
  // gaussian(s) is normal_distribution's draw: z * s + 0.0 bit for bit,
  // ~10^6 draws over stddevs from 0 to infinity; stddev 0 (no std
  // distribution takes it) draws, and discards, one standard value and
  // gives +0.0 from either sign of zero.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const double inf = std::numeric_limits<double>::infinity();
  constexpr int kDraws = 170000;  // per stddev, over both seeds
  for (const std::uint64_t seed : {3ull, 77ull}) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (const double s : {0.0, 1e-300, 0.02, 1.0, 1e300, inf}) {
      for (int i = 0; i < kDraws / 2; ++i) {
        const double want =
            s > 0.0 ? std::normal_distribution<double>(0.0, s)(ref)
                    : std::normal_distribution<double>()(ref) * s + 0.0;
        ASSERT_EQ(bits(rng.gaussian(s)), bits(want))
            << "stddev " << s << " draw " << i;
      }
      ASSERT_EQ(rng.next_u64(), ref()) << "stddev " << s;
    }
    for (const double zero : {0.0, -0.0}) {
      EXPECT_EQ(bits(rng.gaussian(zero)), bits(0.0));
      (void)std::normal_distribution<double>()(ref);
    }
    EXPECT_EQ(rng.next_u64(), ref());
  }
  Rng rng(5);
  EXPECT_THROW((void)rng.gaussian(-1.0), std::invalid_argument);
  EXPECT_THROW((void)rng.gaussian(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW((void)rng.cgaussian(-2.0), std::invalid_argument);
}

TEST(Rng, CanonicalMatchesGenerateCanonicalOnEdgeWords) {
  // The two-halves conversion against generate_canonical<double, 53> fed
  // the same word, including the words whose double rounds up to 2^64
  // (clamped to the largest double below 1) and both sides of 2^53 and
  // 2^63.
  struct OneWord {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type w;
    result_type operator()() { return w; }
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t k63 = std::uint64_t{1} << 63;
  const std::uint64_t all = ~std::uint64_t{0};
  // Doubles below 2^64 are 2^11 apart: 2^64 - 2^10 is the tie that rounds
  // (to even) up to 2^64 and must clamp; one less rounds down to
  // 2^64 - 2^11, which scales to the same largest double below 1.
  for (const std::uint64_t w :
       {std::uint64_t{0}, std::uint64_t{1}, k53 - 1, k53, k53 + 1, k63 - 1,
        k63, k63 + 1, (all << 10) - 1, all << 10, all - 1}) {
    OneWord g{w};
    EXPECT_EQ(bits(Rng::canonical(w)),
              bits(std::generate_canonical<double, 53>(g)))
        << "word " << w;
  }
  EXPECT_EQ(Rng::canonical(0), 0.0);
  EXPECT_EQ(Rng::canonical(all << 10), std::nextafter(1.0, 0.0));
  EXPECT_EQ(Rng::canonical((all << 10) - 1), std::nextafter(1.0, 0.0));
  EXPECT_EQ(Rng::canonical(all), std::nextafter(1.0, 0.0));
  EXPECT_EQ(Rng::canonical(k63), 0.5);
}

TEST(Rng, FillCgaussianMatchesACgaussianLoop) {
  // Blocks of at most 256 pairs: runs shorter than, equal to and just
  // past one block, and many blocks; the engine must end where the
  // one-at-a-time loop ends. Variance 0 checks the +0.0 of each part.
  for (const double variance : {1e-3, 2.0, 0.0}) {
    for (const std::size_t n : {0u, 1u, 2u, 255u, 256u, 257u, 10000u}) {
      Rng rng(91 + n), ref(91 + n);
      cvec got(n, cplx{7.0, 7.0});
      rng.fill_cgaussian(got, variance);
      cvec want(n);
      for (cplx& v : want) v = ref.cgaussian(variance);
      EXPECT_TRUE(n == 0 ||
                  std::memcmp(got.data(), want.data(), n * sizeof(cplx)) == 0)
          << "n " << n << " variance " << variance;
      EXPECT_EQ(rng.next_u64(), ref.next_u64())
          << "n " << n << " variance " << variance;
    }
  }
  Rng rng(4), ref(4);
  const cvec v = rng.cgaussian_vec(300, 0.5);
  for (const cplx& x : v) {
    const cplx w = ref.cgaussian(0.5);
    ASSERT_EQ(std::memcmp(&x, &w, sizeof(cplx)), 0);
  }
  EXPECT_EQ(rng.next_u64(), ref.next_u64());
}

TEST(Rng, FillCgaussianRejectsANegativeOrNanVarianceAndDrawsNothing) {
  Rng rng(6), ref(6);
  cvec out(4, cplx{1.0, 1.0});
  EXPECT_THROW(rng.fill_cgaussian(out, -1.0), std::invalid_argument);
  EXPECT_THROW(
      rng.fill_cgaussian(out, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_EQ(out, cvec(4, cplx{1.0, 1.0}));
  EXPECT_EQ(rng.next_u64(), ref.next_u64());
}

// Each bad argument throws std::invalid_argument naming the function, in
// every build (the std distributions only assert, and only under
// _GLIBCXX_ASSERTIONS).
template <typename F>
void expect_rejected(F&& f, const std::string& name) {
  try {
    f();
    ADD_FAILURE() << name << " accepted a bad argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
  }
}

TEST(Rng, UniformRejectsReversedOrNanBounds) {
  Rng rng(7);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_rejected([&] { (void)rng.uniform(1.0, 0.0); }, "Rng::uniform");
  expect_rejected([&] { (void)rng.uniform(nan, 1.0); }, "Rng::uniform");
  expect_rejected([&] { (void)rng.uniform(0.0, nan); }, "Rng::uniform");
  EXPECT_EQ(rng.uniform(2.5, 2.5), 2.5);
}

TEST(Rng, UniformIntRejectsReversedBounds) {
  Rng rng(8);
  expect_rejected([&] { (void)rng.uniform_int(5, 1); }, "Rng::uniform_int");
  expect_rejected(
      [&] {
        (void)rng.uniform_int(std::numeric_limits<int>::max(),
                              std::numeric_limits<int>::min());
      },
      "Rng::uniform_int");
  EXPECT_EQ(rng.uniform_int(3, 3), 3);
}

TEST(Rng, BernoulliRejectsAProbabilityOutsideZeroToOne) {
  Rng rng(9);
  expect_rejected([&] { (void)rng.bernoulli(1.5); }, "Rng::bernoulli");
  expect_rejected([&] { (void)rng.bernoulli(-0.1); }, "Rng::bernoulli");
  expect_rejected(
      [&] { (void)rng.bernoulli(std::numeric_limits<double>::quiet_NaN()); },
      "Rng::bernoulli");
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

// cubic_segment is the interpolation Medium applies for sampling-frequency
// offset; each check feeds it the four neighbours of a position.
cplx cubic_at(const cvec& x, double pos) {
  const auto i1 = static_cast<std::size_t>(std::floor(pos));
  return cubic_segment(x[i1 - 1], x[i1], x[i1 + 1], x[i1 + 2],
                       pos - static_cast<double>(i1));
}

TEST(Resampler, IdentityRatioPreservesSamples) {
  Rng rng(21);
  const cvec x = rng.cgaussian_vec(64);
  for (std::size_t i = 1; i + 2 < x.size(); ++i) {
    EXPECT_NEAR(std::abs(cubic_at(x, static_cast<double>(i)) - x[i]), 0.0,
                1e-12);
  }
}

TEST(Resampler, RecoversSmoothToneWithSmallPpm) {
  // A 100 kHz tone at 10 MHz sampling, read at the positions of a clock
  // 20 ppm fast, should match the analytically resampled tone closely
  // (interpolation error << phase errors the system cares about).
  const double fs = 10e6, f0 = 100e3;
  const std::size_t n = 4096;
  cvec x(n);
  for (std::size_t t = 0; t < n; ++t) {
    x[t] = phasor(kTwoPi * f0 * static_cast<double>(t) / fs);
  }
  const double ratio = 1.0 + 20e-6;
  for (std::size_t t = 8; t + 8 < n; ++t) {
    const double pos = static_cast<double>(t) * ratio;
    const cplx ref = phasor(kTwoPi * f0 * pos / fs);
    EXPECT_NEAR(std::abs(cubic_at(x, pos) - ref), 0.0, 1e-4);
  }
}

TEST(Resampler, FractionalOffsetShiftsSamples) {
  // Linear ramp: interpolating at +0.5 lands halfway between samples.
  cvec x(16);
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<double>(i);
  for (std::size_t i = 2; i < 10; ++i) {
    EXPECT_NEAR(cubic_at(x, static_cast<double>(i) + 0.5).real(),
                static_cast<double>(i) + 0.5, 1e-9);
  }
}

// The FftPlan contract is BITWISE identity with the naive transform —
// equality, not closeness, because the golden physics exports depend on it.
TEST(FftPlan, ForwardBitwiseMatchesNaive) {
  Rng rng(17);
  for (std::size_t n : {2u, 8u, 64u, 256u}) {
    const FftPlan plan(n);
    cvec x(n);
    for (cplx& v : x) v = rng.cgaussian();
    cvec naive = x;
    cvec planned = x;
    fft_inplace(naive);
    plan.forward(planned);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(naive[i].real(), planned[i].real()) << "n=" << n << " i=" << i;
      EXPECT_EQ(naive[i].imag(), planned[i].imag()) << "n=" << n << " i=" << i;
    }
  }
}

TEST(FftPlan, InverseBitwiseMatchesNaive) {
  Rng rng(23);
  for (std::size_t n : {4u, 64u, 128u}) {
    const FftPlan plan(n);
    cvec x(n);
    for (cplx& v : x) v = rng.cgaussian();
    cvec naive = x;
    cvec planned = x;
    ifft_inplace(naive);
    plan.inverse(planned);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(naive[i].real(), planned[i].real()) << "n=" << n << " i=" << i;
      EXPECT_EQ(naive[i].imag(), planned[i].imag()) << "n=" << n << " i=" << i;
    }
  }
}

TEST(FftPlan, RejectsNonPowerOfTwoAndWrongSpan) {
  EXPECT_THROW(FftPlan(48), std::invalid_argument);
  const FftPlan plan(64);
  cvec x(32);
  EXPECT_THROW(plan.forward(x), std::invalid_argument);
}

// ---- the in-repo 64-bit Mersenne Twister -----------------------------------

static_assert(std::is_same_v<Mt19937_64::result_type,
                             std::mt19937_64::result_type>);
static_assert(Mt19937_64::min() == std::mt19937_64::min());
static_assert(Mt19937_64::max() == std::mt19937_64::max());
static_assert(Mt19937_64::default_seed == std::mt19937_64::default_seed);

TEST(Mt19937_64, MatchesTheStandardEngineDrawForDraw) {
  // [rand.predef] fixes the engine's output, so parity is exact: a million
  // draws per seed crosses the 312-word twist ~3200 times.
  for (const std::uint64_t seed :
       {0ull, 1ull, 5489ull, ~0ull, 31ull, 20260807ull, 0x9E3779B97F4A7C15ull,
        0x8000000000000000ull}) {
    Mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    for (std::size_t i = 0; i < 1000000; ++i) {
      const std::uint64_t got = ours();
      const std::uint64_t want = ref();
      if (got != want) {
        FAIL() << "seed " << seed << " draw " << i << ": " << got
               << " != " << want;
      }
    }
  }
}

TEST(Mt19937_64, TenThousandthDrawOfTheDefaultSeed) {
  // [rand.predef]: "the 10000th consecutive invocation of a
  // default-constructed object of type mt19937_64 shall produce the value
  // 9981545732273789042".
  Mt19937_64 e;
  for (int i = 1; i < 10000; ++i) (void)e();
  EXPECT_EQ(e(), 9981545732273789042ull);
}

TEST(Mt19937_64, SeedManyMatchesOneSeedingPerEngine) {
  // Counts below, at and across the interleave width, and a reseeding of
  // engines that have already been drawn from (state mid-twist).
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 17u, 24u}) {
    std::vector<std::uint64_t> seeds(n);
    for (std::size_t k = 0; k < n; ++k) {
      seeds[k] = (0x9E3779B97F4A7C15ull * (k + 1)) ^ (k << 16);
    }
    std::vector<Mt19937_64> engines(n, Mt19937_64(3));
    std::vector<Mt19937_64*> ptrs;
    for (Mt19937_64& e : engines) {
      for (int i = 0; i < 400; ++i) (void)e();
      ptrs.push_back(&e);
    }
    Mt19937_64::seed_many(ptrs, seeds);
    std::vector<Rng> rngs = Rng::many(seeds);
    ASSERT_EQ(rngs.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      std::mt19937_64 ref(seeds[k]);
      Mt19937_64 one(0);
      one.seed(seeds[k]);
      for (int i = 0; i < 700; ++i) {
        const std::uint64_t want = ref();
        ASSERT_EQ(engines[k](), want) << "n " << n << " engine " << k;
        ASSERT_EQ(rngs[k].next_u64(), want) << "n " << n << " rng " << k;
        ASSERT_EQ(one(), want) << "seed() of engine " << k;
      }
    }
  }
  Mt19937_64 e;
  Mt19937_64* const one[] = {&e};
  EXPECT_THROW(Mt19937_64::seed_many(one, {}), std::invalid_argument);
}

TEST(Mt19937_64, RngDrawsMatchTheStdDistributionsOnTheStdEngine) {
  // Over the std engine, each Rng distribution gives the bits of a fresh
  // libstdc++ distribution of the same parameters, ~10^6 draws per
  // function, and leaves the engine where the std draws leave it. The
  // parameters reach the edges: an empty interval, an infinite width
  // (the product overflows as the library's does), the full int range,
  // probabilities of 0, 1 and next to them.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  constexpr int kDraws = 1000000;
  constexpr int kMin = std::numeric_limits<int>::min();
  constexpr int kMax = std::numeric_limits<int>::max();
  const std::uint64_t seed = 42;
  Rng rng(seed);
  std::mt19937_64 ref(seed);
  const std::pair<double, double> ranges[] = {
      {0.0, 1.0}, {-1.0, 3.0}, {0.625, 0.625}, {-1e308, 1e308}};
  for (const auto& [a, b] : ranges) {
    for (int i = 0; i < kDraws / 4; ++i) {
      ASSERT_EQ(bits(rng.uniform(a, b)),
                bits(std::uniform_real_distribution<double>(a, b)(ref)))
          << "uniform(" << a << ", " << b << ") draw " << i;
    }
    ASSERT_EQ(rng.next_u64(), ref());
  }
  const std::pair<int, int> int_ranges[] = {{0, 0}, {-5, 1000}, {kMin, kMax}};
  for (const auto& [a, b] : int_ranges) {
    for (int i = 0; i < kDraws / 3; ++i) {
      ASSERT_EQ(rng.uniform_int(a, b),
                std::uniform_int_distribution<int>(a, b)(ref))
          << "uniform_int(" << a << ", " << b << ") draw " << i;
    }
    ASSERT_EQ(rng.next_u64(), ref());
  }
  for (const double p : {0.0, 1e-300, 0.3, 1.0 - 0x1p-53, 1.0}) {
    for (int i = 0; i < kDraws / 5; ++i) {
      ASSERT_EQ(rng.bernoulli(p), std::bernoulli_distribution(p)(ref))
          << "bernoulli(" << p << ") draw " << i;
    }
    ASSERT_EQ(rng.next_u64(), ref());
  }
  // Interleaved calls, as the library's callers make them.
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(rng.uniform(-1.0, 3.0),
              std::uniform_real_distribution<double>(-1.0, 3.0)(ref));
    EXPECT_EQ(rng.uniform_int(-5, 1000),
              std::uniform_int_distribution<int>(-5, 1000)(ref));
    EXPECT_EQ(rng.bernoulli(0.3), std::bernoulli_distribution(0.3)(ref));
    EXPECT_EQ(rng.gaussian(0.7),
              std::normal_distribution<double>(0.0, 0.7)(ref));
    EXPECT_EQ(rng.next_u64(), ref());
  }
  // fork() seeds a child from one raw draw.
  Rng child = rng.fork();
  std::mt19937_64 ref_child(ref());
  EXPECT_EQ(child.next_u64(), ref_child());
}

}  // namespace
}  // namespace jmb
