// Free-running oscillator model — the impairment JMB exists to fight.
//
// Every node owns one crystal that derives both its RF carrier and its
// sampling clock, so a part-per-million error shows up twice:
//   * carrier frequency offset (CFO): ppm * carrier_hz * 1e-6 (kHz-scale),
//   * sampling frequency offset (SFO): the same ppm on the sample clock.
// On top of the deterministic offset sits Wiener phase noise: a random
// walk whose variance grows linearly in time. This is exactly why CFO
// *prediction* accumulates error across packets (paper Section 5.2) while
// JMB's direct per-packet phase re-measurement does not.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/types.h"

namespace jmb::chan {

struct OscillatorParams {
  double ppm = 0.0;                      ///< crystal error, parts per million
  double carrier_hz = 2.4e9;  ///< RF carrier the crystal multiplies to
  double sample_rate_hz = 10e6;          ///< nominal ADC/DAC rate
  double phase_noise_linewidth_hz = 0.1; ///< Wiener linewidth (3 dB width)
  std::uint64_t seed = 1;                ///< phase-noise stream seed
};

/// One node's oscillator. Thread-compatible (no internal locking).
class Oscillator {
 public:
  explicit Oscillator(OscillatorParams p);

  /// Deterministic carrier offset in Hz relative to nominal, including
  /// any injected drift-rate steps.
  [[nodiscard]] double cfo_hz() const {
    return params_.ppm * 1e-6 * params_.carrier_hz + injected_cfo_hz_;
  }

  /// Actual sample rate of this node's converters.
  [[nodiscard]] double sample_rate_hz() const {
    return params_.sample_rate_hz * (1.0 + params_.ppm * 1e-6);
  }

  /// Clock ratio relative to nominal (1 + ppm*1e-6).
  [[nodiscard]] double clock_ratio() const { return 1.0 + params_.ppm * 1e-6; }

  /// Phase-noise sample theta(n) at nominal sample index n (radians).
  /// Deterministic: the same (seed, n) always yields the same phase, so a
  /// transmitter queried for several receivers stays self-consistent.
  [[nodiscard]] double phase_noise_at(std::uint64_t n) const;

  /// The phase noise of a contiguous index run, in one forward walk:
  /// out[i] == phase_noise_at(first + i), bit for bit. Later queries and
  /// runs may restart from `first`, so every receiver of one window, and
  /// every block of a walk cut into consecutive runs, pays for the walk
  /// to the window once.
  void phase_noise_run(std::uint64_t first, std::span<double> out) const;

  [[nodiscard]] const OscillatorParams& params() const { return params_; }

  /// Fault injection (fault/injector.h): an instantaneous carrier-phase
  /// jump — a micro phase-hit such as a PLL cycle slip or a supply glitch.
  /// Accumulates across calls into injected_phase_rad().
  void inject_phase_jump(double radians) { injected_phase_rad_ += radians; }
  /// Fault injection: a drift-rate step — the crystal's frequency walks to
  /// a new operating point (temperature shock, aging step). Accumulates
  /// into cfo_hz() so both the carrier rotation and every consumer of the
  /// deterministic offset see it.
  void inject_cfo_step(double hz) { injected_cfo_hz_ += hz; }
  [[nodiscard]] double injected_phase_rad() const {
    return injected_phase_rad_;
  }
  [[nodiscard]] double injected_cfo_hz() const { return injected_cfo_hz_; }

 private:
  OscillatorParams params_;
  std::uint64_t key_ = 0;          ///< splitmix64(seed), hoisted
  double sigma_per_sample_ = 0.0;  ///< phase-noise increment std dev
  double injected_phase_rad_ = 0.0;
  double injected_cfo_hz_ = 0.0;

  /// A point of the random walk: theta(idx) == phase.
  struct WalkPoint {
    std::uint64_t idx = 0;
    double phase = 0.0;
  };

  /// Checkpoints of the random walk, filled in lazily: checkpoints_[k] is
  /// theta(k * kCheckpointStride). Every walk steps through each stride
  /// multiple it passes, so the filled ones always form a prefix.
  static constexpr std::uint64_t kCheckpointStride = 1u << 10;
  mutable std::vector<double> checkpoints_;
  /// Where the most recent query or run ended: receive loops ask for
  /// near-monotone indices, so continuing from here is O(1) amortized.
  mutable WalkPoint last_;
  /// Where the most recent run began (see phase_noise_run).
  mutable WalkPoint run_;

  [[nodiscard]] double increment(std::uint64_t n) const;
  /// The latest known point at or below n: its checkpoint, last_ or run_.
  [[nodiscard]] WalkPoint walk_start(std::uint64_t n) const;
  /// One step of the walk by `inc` (the increment of index w.idx + 1),
  /// recording the checkpoint it may land on.
  void step(WalkPoint& w, double inc) const;
};

}  // namespace jmb::chan
