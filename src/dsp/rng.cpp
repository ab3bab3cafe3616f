#include "dsp/rng.h"

#include <algorithm>
#include <stdexcept>

namespace jmb {

void Mt19937_64::twist() {
  std::size_t i = 0;
  for (; i < kWords - kShift; ++i) {
    x_[i] = mix(x_[i], x_[i + 1], x_[i + kShift]);
  }
  // Stops one word early: an even trip count (154) lets the compiler
  // vectorize this loop without a scalar epilogue, as it does the one above.
  for (; i < kWords - 2; ++i) {
    x_[i] = mix(x_[i], x_[i + 1], x_[i + kShift - kWords]);
  }
  x_[kWords - 2] = mix(x_[kWords - 2], x_[kWords - 1], x_[kShift - 2]);
  x_[kWords - 1] = mix(x_[kWords - 1], x_[0], x_[kShift - 1]);
  i_ = 0;
}

void Mt19937_64::seed_lanes(Mt19937_64* const* engines,
                            const result_type* seeds) {
  static_assert(kSeedLanes == 4, "one named register per lane below");
  result_type* const x0 = engines[0]->x_;
  result_type* const x1 = engines[1]->x_;
  result_type* const x2 = engines[2]->x_;
  result_type* const x3 = engines[3]->x_;
  result_type w0 = x0[0] = seeds[0];
  result_type w1 = x1[0] = seeds[1];
  result_type w2 = x2[0] = seeds[2];
  result_type w3 = x3[0] = seeds[3];
  for (std::size_t i = 1; i < kWords; ++i) {
    x0[i] = w0 = seed_word(w0, i);
    x1[i] = w1 = seed_word(w1, i);
    x2[i] = w2 = seed_word(w2, i);
    x3[i] = w3 = seed_word(w3, i);
  }
  for (std::size_t l = 0; l < kSeedLanes; ++l) engines[l]->twist();
}

void Mt19937_64::seed_many(std::span<Mt19937_64* const> engines,
                           std::span<const result_type> seeds) {
  if (engines.size() != seeds.size()) {
    throw std::invalid_argument("Mt19937_64::seed_many: one seed per engine");
  }
  std::size_t k = 0;
  for (; k + kSeedLanes <= engines.size(); k += kSeedLanes) {
    seed_lanes(&engines[k], &seeds[k]);
  }
  for (; k < engines.size(); ++k) {
    engines[k]->seed(seeds[k]);
    engines[k]->twist();
  }
}

std::vector<Rng> Rng::many(std::span<const std::uint64_t> seeds) {
  // Built unseeded in place, then seeded together: no seeding is thrown
  // away and no engine is copied.
  std::vector<Rng> out;
  out.reserve(seeds.size());
  std::vector<Mt19937_64*> engines(seeds.size());
  for (Mt19937_64*& e : engines) {
    e = &out.emplace_back(Mt19937_64::Unseeded{}).engine_;
  }
  Mt19937_64::seed_many(engines, seeds);
  return out;
}

void Rng::fill_cgaussian(std::span<cplx> out, double variance) {
  // Each sample is gaussian(s) for its real part, then for its imaginary
  // part: 2n normals, the k-th from the k-th accepted pair of the one
  // stream of pairs that cgaussian would draw.
  const double s = std::sqrt(variance / 2.0);
  if (!(s >= 0.0)) {
    throw std::invalid_argument("Rng::fill_cgaussian: negative or NaN variance");
  }
  constexpr std::size_t kBlock = 256;  // pairs per block
  std::uint64_t words[2 * kBlock];
  double ys[kBlock];
  double r2s[kBlock];
  // A complex<double> array may be read as its parts, real then imaginary
  // ([complex.numbers]): normal k goes to part k.
  double* next = reinterpret_cast<double*>(out.data());
  std::size_t need = 2 * out.size();
  while (need > 0) {
    // Every accepted pair yields a normal, so k <= need pairs never run
    // past the last one needed: a block that completes the run does so
    // with its last pair, where the one-at-a-time loop would stop.
    const std::size_t k = std::min(need, kBlock);
    for (std::size_t i = 0; i < 2 * k; ++i) words[i] = engine_();
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < k; ++i) {
      double y = 0.0, r2 = 0.0;
      const bool ok = polar_pair(words[2 * i], words[2 * i + 1], y, r2);
      ys[accepted] = y;
      r2s[accepted] = r2;
      accepted += ok ? 1 : 0;
    }
    for (std::size_t j = 0; j < accepted; ++j) {
      *next++ = polar_value(ys[j], r2s[j], s);
    }
    need -= accepted;
  }
}

}  // namespace jmb
