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
#include <span>
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
  /// power per complex sample (the "noise floor" in linear units). Throws
  /// std::invalid_argument if noise_var is negative or not finite.
  NodeId add_node(OscillatorParams osc, double noise_var = 1.0);

  [[nodiscard]] std::size_t n_nodes() const { return nodes_.size(); }
  /// Oscillator handle for fault injection (phase jumps / CFO steps).
  [[nodiscard]] Oscillator& oscillator_mutable(NodeId id);
  /// Adjust a receiver's noise floor (used to calibrate operating SNR).
  /// Throws std::invalid_argument as add_node does.
  void set_noise_var(NodeId id, double noise_var);

  /// Install / replace the directed link tx -> rx.
  void set_link(NodeId tx, NodeId rx, FadingParams fading);
  [[nodiscard]] FadingChannel* link(NodeId tx, NodeId rx);

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
  /// Throws std::invalid_argument if start_s is not finite. The
  /// one-receiver form of receive_into.
  [[nodiscard]] cvec receive(NodeId rx, double start_s, std::size_t n);

  /// What each of `rxs` hears over one shared window: out[r] becomes
  /// receive(rxs[r], start_s, n), bit for bit, and the shared noise stream
  /// ends where those calls in order would leave it. Each oscillator's
  /// phase noise is walked once per window, not once per receiver.
  /// Duplicate ids are allowed (each entry draws its own noise). Throws
  /// std::invalid_argument, before any draw, on an unknown id, a
  /// non-finite start_s or out.size() != rxs.size().
  void receive_into(std::span<const NodeId> rxs, double start_s,
                    std::size_t n, std::span<cvec> out);

  /// Drop all scheduled transmissions (between experiment phases).
  void clear_transmissions();

  [[nodiscard]] double sample_rate_hz() const { return params_.sample_rate_hz; }

 private:
  struct Node {
    Oscillator osc;
    double noise_var = 1.0;
  };
  struct Transmission {
    NodeId tx = 0;
    double start_s = 0.0;
    cvec samples;
  };

  /// One (transmission, receiver) pair of a receive_into call that adds
  /// something: receiver samples [m_lo, m_hi) fall inside the burst, and
  /// read phase noise at nominal indices [idx_lo, idx_hi].
  struct Pair {
    const Transmission* t = nullptr;
    const FadingChannel* ch = nullptr;
    std::size_t r = 0;  ///< position in rxs
    double t0 = 0.0;    ///< true time of the burst's first sample at rx
    double fs_tx = 0.0;
    double delta_cfo = 0.0;
    std::size_t len = 0;  ///< multipath output length
    std::size_t m_lo = 0, m_hi = 0;
    std::uint64_t idx_lo = 0, idx_hi = 0;
  };
  /// receive_into's working memory, kept between calls. Its size follows
  /// the node, transmission and receiver counts and the 256-index block,
  /// never the window length.
  struct Scratch {
    std::vector<Pair> pairs;
    std::vector<double> theta;  ///< one block of phase noise per node
    std::vector<char> walked;   ///< theta holds this block, per node
    std::vector<std::size_t> m_begin, m_end;  ///< block's samples, per rx
    cvec conv;  ///< one pair's multipath output over one block
  };

  MediumParams params_;
  std::vector<Node> nodes_;
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<FadingChannel>> links_;
  std::vector<Transmission> transmissions_;
  Rng noise_rng_;
  Scratch scratch_;
};

}  // namespace jmb::chan
