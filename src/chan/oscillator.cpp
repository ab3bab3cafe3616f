#include "chan/oscillator.h"

#include <algorithm>
#include <cmath>

namespace jmb::chan {

namespace {

// splitmix64: cheap stateless hash -> 64 uniform bits per (seed, counter).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// One standard Gaussian from two hashed uniforms (Box-Muller). `key` is
// the pre-mixed seed, splitmix64(seed), so that distinct seeds yield
// independent streams even for overlapping counter ranges (nodes must not
// share phase noise).
double hashed_gaussian(std::uint64_t key, std::uint64_t n) {
  const std::uint64_t a = splitmix64(key ^ splitmix64(2 * n + 1));
  const std::uint64_t b = splitmix64(key ^ splitmix64(2 * n + 2));
  const double u1 = (static_cast<double>(a >> 11) + 0.5) * 0x1.0p-53;
  const double u2 = (static_cast<double>(b >> 11) + 0.5) * 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

}  // namespace

Oscillator::Oscillator(OscillatorParams p)
    : params_(p), key_(splitmix64(p.seed)) {
  // Wiener phase noise with linewidth B: Var[theta(t+dt) - theta(t)] =
  // 2 pi B dt. Per nominal sample: sigma^2 = 2 pi B / fs.
  sigma_per_sample_ = std::sqrt(kTwoPi * params_.phase_noise_linewidth_hz /
                                params_.sample_rate_hz);
  checkpoints_.push_back(0.0);
}

double Oscillator::increment(std::uint64_t n) const {
  return sigma_per_sample_ * hashed_gaussian(key_, n);
}

// theta(n) is the left fold ((0 + inc(1)) + inc(2)) + ... + inc(n), so a
// walk from any earlier point of it (checkpoint, last_ or run_) produces
// the same doubles as one from 0.
Oscillator::WalkPoint Oscillator::walk_start(std::uint64_t n) const {
  const std::size_t k = static_cast<std::size_t>(
      std::min<std::uint64_t>(n / kCheckpointStride, checkpoints_.size() - 1));
  WalkPoint w{k * kCheckpointStride, checkpoints_[k]};
  if (last_.idx <= n && last_.idx > w.idx) w = last_;
  if (run_.idx <= n && run_.idx > w.idx) w = run_;
  return w;
}

void Oscillator::step(WalkPoint& w, double inc) const {
  ++w.idx;
  w.phase += inc;
  if (w.idx == checkpoints_.size() * kCheckpointStride) {
    checkpoints_.push_back(w.phase);
  }
}

double Oscillator::phase_noise_at(std::uint64_t n) const {
  if (sigma_per_sample_ == 0.0) return 0.0;
  WalkPoint w = walk_start(n);
  while (w.idx < n) step(w, increment(w.idx + 1));
  last_ = w;
  return w.phase;
}

void Oscillator::phase_noise_run(std::uint64_t first,
                                 std::span<double> out) const {
  if (out.empty()) return;
  if (sigma_per_sample_ == 0.0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  WalkPoint w = walk_start(first);
  while (w.idx < first) step(w, increment(w.idx + 1));
  // A run that starts inside the stretch walked since run_ (the next
  // receiver of the same window, or the next block of a cut-up walk)
  // keeps run_, so a later restart anywhere in that stretch still begins
  // at run_ rather than at a checkpoint.
  if (!(run_.idx <= first && first <= last_.idx + 1)) run_ = w;
  // The increments do not depend on each other, so they are computed in
  // one loop first; the fold then adds them in order.
  for (std::size_t i = 1; i < out.size(); ++i) out[i] = increment(first + i);
  out[0] = w.phase;
  for (std::size_t i = 1; i < out.size(); ++i) {
    step(w, out[i]);
    out[i] = w.phase;
  }
  last_ = w;
}

}  // namespace jmb::chan
