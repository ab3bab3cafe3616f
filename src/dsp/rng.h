// Deterministic random number generation for reproducible experiments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
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
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}
  /// Unseeded until Rng::many seeds it (only Rng holds the token).
  explicit Rng(Mt19937_64::Unseeded token) : engine_(token) {}

  /// One generator per seed, generator k the same stream as Rng(seeds[k]),
  /// seeded together (Mt19937_64::seed_many) for callers that need many.
  [[nodiscard]] static std::vector<Rng> many(
      std::span<const std::uint64_t> seeds);

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// One fair coin flip / biased Bernoulli draw.
  [[nodiscard]] bool bernoulli(double p = 0.5) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Zero-mean real Gaussian with the given standard deviation; 0 gives
  /// +0.0. Throws std::invalid_argument on a negative or NaN stddev.
  [[nodiscard]] double gaussian(double stddev = 1.0) {
    // Written so that a NaN stddev fails the check too.
    if (!(stddev >= 0.0)) {
      throw std::invalid_argument("Rng::gaussian: negative or NaN stddev");
    }
    // A standard draw, scaled as libstdc++ scales it (z * stddev + mean):
    // the same draws and bits as normal_distribution(0, stddev), whose
    // parameter check would reject stddev 0.
    return std::normal_distribution<double>()(engine_) * stddev + 0.0;
  }

  /// Circularly-symmetric complex Gaussian with E[|x|^2] = variance.
  [[nodiscard]] cplx cgaussian(double variance = 1.0) {
    const double s = std::sqrt(variance / 2.0);
    return {gaussian(s), gaussian(s)};
  }

  /// A run of n complex Gaussian samples with E[|x|^2] = variance.
  [[nodiscard]] cvec cgaussian_vec(std::size_t n, double variance = 1.0) {
    cvec out(n);
    for (cplx& v : out) v = cgaussian(variance);
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
  Mt19937_64 engine_;
};

}  // namespace jmb
