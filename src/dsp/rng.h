// Deterministic random number generation for reproducible experiments.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "dsp/types.h"

namespace jmb {

/// The 64-bit Mersenne Twister, mt19937_64 of [rand.predef]: the standard
/// fixes every output bit from the seed, so this engine and
/// std::mt19937_64 produce the same sequence, and the std distributions
/// read the same bits from either (same result_type, min and max). It is
/// written here for speed: the twist runs in three branch-free loops
/// with no wrap-around index, where the library's twist branches on each
/// word's low bit.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kWords = 312;
  static constexpr std::size_t kShift = 156;
  static constexpr result_type default_seed = 5489u;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed = default_seed) { this->seed(seed); }

  /// The token of a constructor that leaves the words for seed_many to
  /// write. Only Rng::many holds one, and it seeds every such engine
  /// before anything reads it.
  class Unseeded {
    Unseeded() = default;
    friend class Rng;
  };
  explicit Mt19937_64(Unseeded) : i_(kWords) {}

  /// Restart the sequence from `value`, as a new engine would.
  void seed(result_type value) {
    x_[0] = value;
    for (std::size_t i = 1; i < kWords; ++i) x_[i] = seed_word(x_[i - 1], i);
    i_ = kWords;
  }

  /// engines[k]->seed(seeds[k]) for every k: each engine then draws the
  /// same stream. Each word of a seeding waits on a multiply of the word
  /// before it, so one seeding leaves the multiplier idle most of the
  /// time; this runs kSeedLanes of them side by side in registers (~2.5x
  /// faster per engine). Each group's first twist runs here too, while
  /// its words are still in cache, instead of at its first draw.
  static void seed_many(std::span<Mt19937_64* const> engines,
                        std::span<const result_type> seeds);

  result_type operator()() {
    if (i_ >= kWords) twist();
    result_type z = x_[i_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  /// Word i becomes x[i + 156] ^ (y >> 1) ^ (a if y is odd), y joining
  /// word i's top 33 bits to word i + 1's low 31 (indices mod 312).
  static result_type mix(result_type lo, result_type hi, result_type far) {
    constexpr result_type kLowMask = (result_type{1} << 31) - 1;
    const result_type y = (lo & ~kLowMask) | (hi & kLowMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ull);
  }

  static constexpr std::size_t kSeedLanes = 4;

  /// Word i of a seeding from word i - 1.
  static result_type seed_word(result_type prev, std::size_t i) {
    return 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
  }

  /// seed() and the first twist of kSeedLanes engines, one register per
  /// seed recurrence.
  static void seed_lanes(Mt19937_64* const* engines, const result_type* seeds);

  /// Refill all 312 words (out of line: once per 312 draws).
  void twist();

  result_type x_[kWords];
  std::size_t i_;
};

/// Seeded random source. Every experiment object takes an Rng (or a seed)
/// explicitly so that a bench rerun with the same seed reproduces the same
/// topologies, channels and noise — a property the tests rely on.
///
/// The distributions are written here, not taken from <random>: each one
/// reproduces libstdc++ 12's std distribution of the same name, draw for
/// draw and bit for bit, over the same engine (uniform_real, uniform_int,
/// bernoulli and normal; tests/test_dsp.cpp compares them). The pinned
/// artifacts therefore depend on no standard library's choice of
/// algorithm. Unlike the std versions, bad arguments throw
/// std::invalid_argument in every build.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}
  /// Unseeded until Rng::many seeds it (only Rng holds the token).
  explicit Rng(Mt19937_64::Unseeded token) : engine_(token) {}

  /// One generator per seed, generator k the same stream as Rng(seeds[k]),
  /// seeded together (Mt19937_64::seed_many) for callers that need many.
  [[nodiscard]] static std::vector<Rng> many(
      std::span<const std::uint64_t> seeds);

  /// generate_canonical<double, 53> of one engine word, as libstdc++ 12
  /// computes it: double(w) / 2^64, clamped to the largest double below 1
  /// where that rounds up to 1. double(w) is summed from the word's two
  /// halves, which convert exactly, so the sum rounds once to the same
  /// nearest double. GCC's baseline x86-64 conversion of a full word
  /// branches on its top bit, a coin flip the branch predictor misses
  /// half the time; the halves convert as signed integers, without it.
  [[nodiscard]] static double canonical(std::uint64_t w) {
    const double d =
        static_cast<double>(static_cast<std::int64_t>(w >> 32)) * 0x1p32 +
        static_cast<double>(static_cast<std::int64_t>(w & 0xffffffffu));
    const double u = d * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
  }

  /// Uniform double in [lo, hi): u * (hi - lo) + lo, as
  /// uniform_real_distribution computes it. Throws std::invalid_argument
  /// unless lo <= hi (so also on a NaN bound).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    if (!(lo <= hi)) {
      throw std::invalid_argument("Rng::uniform: need lo <= hi");
    }
    return canonical(engine_()) * (hi - lo) + lo;
  }

  /// Uniform integer in [lo, hi] (inclusive), by uniform_int_distribution's
  /// 128-bit Lemire downscale. Throws std::invalid_argument if lo > hi.
  [[nodiscard]] int uniform_int(int lo, int hi) {
    if (lo > hi) {
      throw std::invalid_argument("Rng::uniform_int: need lo <= hi");
    }
    // hi - lo + 1 as the library forms it: both ends sign-extended to 64
    // bits, so the range is exact and at most 2^32.
    const std::uint64_t range = static_cast<std::uint64_t>(hi) -
                                static_cast<std::uint64_t>(lo) + 1;
    __extension__ using Wide = unsigned __int128;
    Wide product = Wide{engine_()} * range;
    auto low = static_cast<std::uint64_t>(product);
    if (low < range) {
      const std::uint64_t threshold = (0 - range) % range;
      while (low < threshold) {
        product = Wide{engine_()} * range;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<int>(static_cast<std::uint64_t>(product >> 64) +
                            static_cast<std::uint64_t>(lo));
  }

  /// One fair coin flip / biased Bernoulli draw: u < p, one engine word
  /// whatever p is. Throws std::invalid_argument unless 0 <= p <= 1.
  [[nodiscard]] bool bernoulli(double p = 0.5) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument("Rng::bernoulli: need 0 <= p <= 1");
    }
    return canonical(engine_()) < p;
  }

  /// Zero-mean real Gaussian with the given standard deviation; 0 gives
  /// +0.0. Throws std::invalid_argument on a negative or NaN stddev.
  [[nodiscard]] double gaussian(double stddev = 1.0) {
    // Written so that a NaN stddev fails the check too.
    if (!(stddev >= 0.0)) {
      throw std::invalid_argument("Rng::gaussian: negative or NaN stddev");
    }
    double y = 0.0, r2 = 0.0;
    for (;;) {
      const std::uint64_t wx = engine_();  // x's word first
      const std::uint64_t wy = engine_();
      if (polar_pair(wx, wy, y, r2)) return polar_value(y, r2, stddev);
    }
  }

  /// Circularly-symmetric complex Gaussian with E[|x|^2] = variance.
  [[nodiscard]] cplx cgaussian(double variance = 1.0) {
    const double s = std::sqrt(variance / 2.0);
    return {gaussian(s), gaussian(s)};
  }

  /// out[i] = cgaussian(variance) for every i in turn: the same values and
  /// the same engine position afterwards, at about half the cost per
  /// sample. Pairs of uniforms are drawn a block at a time, never more
  /// pairs than normals still needed, and the polar method's accept test
  /// runs over the block before any log. Throws std::invalid_argument on
  /// a negative or NaN variance, before drawing anything.
  void fill_cgaussian(std::span<cplx> out, double variance);

  /// A run of n complex Gaussian samples with E[|x|^2] = variance.
  [[nodiscard]] cvec cgaussian_vec(std::size_t n, double variance = 1.0) {
    cvec out(n);
    fill_cgaussian(out, variance);
    return out;
  }

  /// Uniform phase in [0, 2*pi).
  [[nodiscard]] double uniform_phase() { return uniform(0.0, kTwoPi); }

  /// Derive an independent child generator (used to give each node its own
  /// stream so adding a node never perturbs the draws of existing nodes).
  [[nodiscard]] Rng fork() { return Rng(engine_()); }

  /// Raw 64-bit draw.
  [[nodiscard]] std::uint64_t next_u64() { return engine_(); }

 private:
  /// One attempt of normal_distribution's polar method: x and y uniform
  /// on [-1, 1) from two words, in that order, and r2 = x^2 + y^2. The
  /// pair is accepted unless r2 > 1 or r2 == 0; returns whether it is.
  static bool polar_pair(std::uint64_t wx, std::uint64_t wy, double& y,
                         double& r2) {
    const double x = 2.0 * canonical(wx) - 1.0;
    y = 2.0 * canonical(wy) - 1.0;
    r2 = x * x + y * y;
    return !(r2 > 1.0 || r2 == 0.0);
  }

  /// The normal from an accepted pair, scaled as Rng::gaussian(stddev)
  /// scales it. libstdc++ keeps y * mult (x * mult is saved for the next
  /// call of the same distribution object, which a fresh object never
  /// makes), applies its own stddev 1 and mean 0, and the repo then
  /// scales by stddev and adds +0.0 (so a zero stddev gives +0.0).
  static double polar_value(double y, double r2, double stddev) {
    const double z = y * std::sqrt(-2 * std::log(r2) / r2);
    return (z * 1.0 + 0.0) * stddev + 0.0;
  }

  Mt19937_64 engine_;
};

}  // namespace jmb
