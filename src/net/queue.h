// The shared downlink queue of Section 9: all downlink packets reach every
// AP over the Ethernet backhaul, so all APs see one queue. Each packet has
// a designated AP (the strongest to its client), which becomes the lead for
// the transmission that carries it; the lead then picks extra packets for
// joint transmission, one per additional client.
//
// Internally the queue keeps one subqueue per client, ordered by a global
// arrival sequence number, so it behaves as one FIFO (head = globally
// oldest packet; pop_joint = first packet per distinct client in arrival
// order) while joint selection costs O(active clients) instead of a
// full-queue scan, and scheduling policies (traffic_api.h) can pick
// clients and aggregate multiple packets per client without disturbing
// other subqueues.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

namespace jmb::net {

struct Packet {
  std::size_t client = 0;        ///< destination client index
  std::size_t bytes = 1500;
  std::size_t designated_ap = 0; ///< strongest AP to this client
  double enqueue_s = 0.0;
  int retries = 0;
  std::uint64_t id = 0;
  // --- traffic-subsystem fields (defaults: one flow, no deadline) ---
  std::uint32_t flow = 0;   ///< flow index within the client (0 = default)
  double deadline_s = 0.0;  ///< absolute delivery deadline; 0 = none
};

/// A-MPDU-style aggregation limits: how many packets one client may pack
/// into its stream of a single joint transmission, and the byte budget
/// they must fit in. The head packet is always taken, so max_frames = 1
/// sends one packet per client.
struct AggLimits {
  std::size_t max_frames = 1;
  std::size_t max_bytes = static_cast<std::size_t>(-1);
};

class DownlinkQueue {
 public:
  void push(Packet p);
  /// Failed packets return to the front (they keep their place, as in
  /// "APs keep packets in the queue until they are ACKed"). The re-queue
  /// IS the retry: push_front increments Packet::retries itself, so a
  /// retransmitted packet can never be re-queued with a stale count.
  void push_front(Packet p);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Pop the head packet plus up to max_streams-1 further packets for
  /// *distinct other clients* (first match per client, preserving order) —
  /// the joint-transmission selection of Section 9. The head's designated
  /// AP leads the transmission.
  [[nodiscard]] std::vector<Packet> pop_joint(std::size_t max_streams);

  /// Pop just the head (baseline 802.11 behaviour).
  [[nodiscard]] std::optional<Packet> pop();

  // --- scheduler/aggregation interface (traffic subsystem) ---

  /// Clients with a non-empty subqueue, ordered by their oldest packet's
  /// arrival (the order pop_joint serves them). O(active clients).
  [[nodiscard]] std::vector<std::size_t> clients_fifo() const;

  /// Oldest queued packet for `client`, or nullptr when it has none.
  [[nodiscard]] const Packet* front_of(std::size_t client) const;

  /// Pop a front run of `client`'s subqueue: up to lim.max_frames packets
  /// whose payload bytes fit lim.max_bytes (the first packet is always
  /// taken), appended to `out`. Returns their payload bytes; an empty
  /// subqueue appends nothing and returns 0.
  std::size_t pop_aggregate_into(std::size_t client, const AggLimits& lim,
                                 std::vector<Packet>& out);

 private:
  /// Per-client subqueue; packets kept in ascending seq order, so front()
  /// is the client's oldest packet.
  struct Entry {
    std::int64_t seq;
    Packet pkt;
  };

  void enqueue(std::int64_t seq, Packet p);
  /// Index of the client owning the globally oldest packet, or npos.
  [[nodiscard]] std::size_t head_client() const;

  std::vector<std::deque<Entry>> subs_;
  std::size_t size_ = 0;
  std::int64_t back_seq_ = 0;    ///< next push() sequence (ascending)
  std::int64_t front_seq_ = -1;  ///< next push_front() sequence (descending)
};

}  // namespace jmb::net
