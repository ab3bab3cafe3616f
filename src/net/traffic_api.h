// Abstract traffic interfaces the MAC simulations accept: a TrafficSource
// that feeds the shared downlink queue with bursty per-flow arrivals, and
// a Scheduler that picks which clients a (joint) transmission serves.
//
// The interfaces live in net/ (they speak only net:: vocabulary) so the
// MAC stays independent of any particular traffic model; the concrete
// flow generators and scheduling policies live in src/traffic/. The
// TrafficSource is one of the four pieces the MAC loop is parameterized
// by: without one (MacParams::traffic null) the loop's saturated
// round-robin fill keeps every client backlogged. A null Scheduler serves
// clients in FIFO order, the pop_joint selection.
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>
#include <vector>

#include "net/queue.h"

namespace jmb::net {

/// Achievable PHY rate hint (Mb/s) for a client at the current instant,
/// derived from its link state. Rate-aware policies (proportional fair)
/// use it; deadline/FIFO policies ignore it. May be null.
using RateHintFn = std::function<double(std::size_t client)>;

/// User-selection policy for one transmission slot. Implementations must
/// be deterministic functions of their inputs and feedback history —
/// exports are byte-compared across thread counts and backends.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Pick up to max_streams distinct backlogged clients, in stream order.
  /// `q` exposes the candidates via clients_fifo()/front_of();
  /// selections of unqueued clients are ignored by the caller.
  [[nodiscard]] virtual std::vector<std::size_t> select(
      const DownlinkQueue& q, std::size_t max_streams, double now,
      const RateHintFn* rate_hint) = 0;

  /// Feedback after a data slot: `bytes` of `client`'s traffic were
  /// delivered in a slot that occupied the medium for slot_s seconds.
  virtual void on_served(std::size_t client, double bytes, double slot_s) {
    (void)client;
    (void)bytes;
    (void)slot_s;
  }

  /// Called once per data slot after all on_served() feedback, so
  /// rate-tracking policies can age every client's average (served or
  /// not) by the slot airtime.
  virtual void on_slot(double slot_s) { (void)slot_s; }
};

/// Per-user packet arrival process feeding the shared downlink queue.
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;

  /// Enqueue every packet arriving at or before virtual time t (each with
  /// its true arrival time in Packet::enqueue_s). Returns packets pushed.
  virtual std::size_t drain_until(double t, DownlinkQueue& q) = 0;

  /// Earliest pending arrival; +infinity when the source is exhausted.
  /// After drain_until(t) this is strictly greater than t, so an idling
  /// MAC can jump its clock forward without risking a stall.
  [[nodiscard]] virtual double next_arrival_s() const = 0;
};

}  // namespace jmb::net
