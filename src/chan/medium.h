// The shared wireless medium at complex-baseband sample level.
//
// Nodes register with an oscillator and a noise floor; directed links get a
// fading channel. Transmissions are scheduled on a global true-time axis;
// receivers render what they hear over a window, with every physical-layer
// impairment applied per (tx, rx) pair:
//   * tapped-delay-line convolution (multipath),
//   * propagation delay including fractional-sample part,
//   * sampling-frequency offset (the pair's relative clock skew, applied by
//     interpolating the transmit waveform at the receiver's sample times),
//   * carrier-frequency offset and phase noise of both oscillators,
//   * AWGN at the receiver's noise floor.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "chan/fading.h"
#include "chan/oscillator.h"
#include "dsp/rng.h"
#include "dsp/types.h"

namespace jmb::chan {

using NodeId = std::size_t;

struct MediumParams {
  double sample_rate_hz = 10e6;  ///< nominal system rate
};

class Medium {
 public:
  explicit Medium(MediumParams p, std::uint64_t noise_seed = 99);

  /// Register a node; returns its id. `noise_var` is the receiver's noise
  /// power per complex sample (the "noise floor" in linear units).
  NodeId add_node(OscillatorParams osc, double noise_var = 1.0);

  [[nodiscard]] std::size_t n_nodes() const { return nodes_.size(); }
  [[nodiscard]] const Oscillator& oscillator(NodeId id) const;
  /// Mutable oscillator handle for fault injection (phase jumps / CFO
  /// steps); everything else should use the const accessor.
  [[nodiscard]] Oscillator& oscillator_mutable(NodeId id);
  [[nodiscard]] double noise_var(NodeId id) const;
  /// Adjust a receiver's noise floor (used to calibrate operating SNR).
  void set_noise_var(NodeId id, double noise_var);

  /// Install a per-subcarrier interference profile at receiver `rx`:
  /// psd[k] is the extra noise power per complex sample contributed by
  /// neighboring cells' leakage on FFT bin k (noise-rise units — a flat
  /// psd of v raises the white floor by exactly v). Rendered in receive()
  /// as shaped Gaussian noise, one psd.size()-bin block at a time. An
  /// empty vector removes the profile: receive() then takes no draws for
  /// it, so every later draw from the shared noise stream is unshifted.
  void set_interference(NodeId rx, std::vector<double> psd);
  [[nodiscard]] const std::vector<double>& interference(NodeId rx) const;

  /// Install / replace the directed link tx -> rx.
  void set_link(NodeId tx, NodeId rx, FadingParams fading);
  [[nodiscard]] FadingChannel* link(NodeId tx, NodeId rx);
  [[nodiscard]] const FadingChannel* link(NodeId tx, NodeId rx) const;

  /// Advance all links' fading processes to time t (seconds, monotone).
  /// Throws std::invalid_argument if t is not finite.
  void evolve_links_to(double t_seconds);

  /// Schedule a burst from `tx` whose first sample leaves the antenna at
  /// true time `start_s` (as measured on the global clock). The node's SFO
  /// is applied when receivers resample it. Throws std::invalid_argument
  /// if start_s is not finite.
  void transmit(NodeId tx, double start_s, cvec samples);

  /// What `rx` hears over n samples of ITS OWN clock, the first taken at
  /// true time ~ start_s. Includes AWGN and both oscillators' rotations.
  /// Throws std::invalid_argument if start_s is not finite.
  [[nodiscard]] cvec receive(NodeId rx, double start_s, std::size_t n);

  /// Drop all scheduled transmissions (between experiment phases).
  void clear_transmissions();

  /// True channel frequency response tx -> rx on the 64 FFT bins right
  /// now, including the fractional-delay phase ramp — the oracle tests and
  /// the link-level model compare against. Does not include oscillator
  /// rotations (those are time-varying by nature).
  [[nodiscard]] cvec true_channel(NodeId tx, NodeId rx,
                                  std::size_t nfft = 64) const;

  [[nodiscard]] double sample_rate_hz() const { return params_.sample_rate_hz; }

 private:
  struct Node {
    Oscillator osc;
    double noise_var = 1.0;
    /// Empty = no inter-cell interference (and no noise draws for it).
    std::vector<double> interference_psd;
  };
  struct Transmission {
    NodeId tx = 0;
    double start_s = 0.0;
    cvec samples;
  };

  MediumParams params_;
  std::vector<Node> nodes_;
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<FadingChannel>> links_;
  std::vector<Transmission> transmissions_;
  Rng noise_rng_;
};

}  // namespace jmb::chan
