// Pluggable user-selection policies behind the net::Scheduler interface.
// FIFO reproduces the legacy pop_joint order bit-for-bit; proportional
// fair trades instantaneous rate against an EWMA of served throughput;
// earliest-deadline-first serves the most urgent head-of-line packets.
// All three are deterministic functions of their inputs and feedback —
// a requirement for cross-thread byte-identical exports.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "net/traffic_api.h"

namespace jmb::traffic {

/// First packet per distinct client, in global arrival order — exactly
/// what DownlinkQueue::pop_joint serves (tested bit-identical).
class FifoScheduler final : public net::Scheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "fifo"; }
  [[nodiscard]] std::vector<std::size_t> select(
      const net::DownlinkQueue& q, std::size_t max_streams, double now,
      const net::RateHintFn* rate_hint) override;
};

/// Proportional fair: priority = achievable rate / EWMA of served rate,
/// so a starved client's priority grows until it wins a slot. The EWMA
/// time constant tau governs the fairness horizon; every known client is
/// aged each slot (served or not), the classic PF filter.
class PfScheduler final : public net::Scheduler {
 public:
  explicit PfScheduler(double ewma_tau_s = 0.1) : tau_s_(ewma_tau_s) {}
  [[nodiscard]] std::string_view name() const override { return "pf"; }
  [[nodiscard]] std::vector<std::size_t> select(
      const net::DownlinkQueue& q, std::size_t max_streams, double now,
      const net::RateHintFn* rate_hint) override;
  void on_served(std::size_t client, double bytes, double slot_s) override;
  void on_slot(double slot_s) override;

  /// Current throughput estimate (Mb/s) for tests; 0 for unseen clients.
  [[nodiscard]] double ewma_mbps(std::size_t client) const {
    return client < ewma_mbps_.size() ? ewma_mbps_[client] : 0.0;
  }

 private:
  double tau_s_;
  std::vector<double> ewma_mbps_;
  /// (client, Mb/s served) feedback for the slot in flight, folded into
  /// the EWMA at on_slot().
  std::vector<std::pair<std::size_t, double>> pending_;
  /// select()'s per-candidate priorities and rank order, kept between
  /// slots so a selection allocates only the vector it returns.
  std::vector<double> prio_;
  std::vector<std::size_t> order_;
};

/// Earliest deadline first over head-of-line packets. Deadline-free
/// packets (deadline_s == 0) rank after every deadline, and ties keep
/// FIFO order (a stable sort) — so two ready deadlines are never inverted.
class EdfScheduler final : public net::Scheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "edf"; }
  [[nodiscard]] std::vector<std::size_t> select(
      const net::DownlinkQueue& q, std::size_t max_streams, double now,
      const net::RateHintFn* rate_hint) override;
};

/// Factory for the JMB_SCHED knob: "fifo" | "pf" | "edf". Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<net::Scheduler> make_scheduler(
    std::string_view name, double pf_tau_s = 0.1);

}  // namespace jmb::traffic
