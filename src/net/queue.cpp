#include "net/queue.h"

#include <algorithm>

namespace jmb::net {

namespace {
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
}  // namespace

void DownlinkQueue::enqueue(std::int64_t seq, Packet p) {
  if (p.client >= subs_.size()) subs_.resize(p.client + 1);
  std::deque<Entry>& sub = subs_[p.client];
  if (sub.empty() || seq > sub.back().seq) {
    sub.push_back({seq, p});
  } else {
    // Front sequences descend, so a push_front lands at its subqueue's
    // front; the general insert keeps the deque seq-sorted regardless.
    auto it = std::lower_bound(
        sub.begin(), sub.end(), seq,
        [](const Entry& e, std::int64_t s) { return e.seq < s; });
    sub.insert(it, {seq, p});
  }
  ++size_;
}

void DownlinkQueue::push(Packet p) { enqueue(back_seq_++, p); }

void DownlinkQueue::push_front(Packet p) {
  ++p.retries;
  enqueue(front_seq_--, p);
}

std::size_t DownlinkQueue::head_client() const {
  std::size_t best = kNpos;
  std::int64_t best_seq = 0;
  for (std::size_t c = 0; c < subs_.size(); ++c) {
    if (subs_[c].empty()) continue;
    const std::int64_t seq = subs_[c].front().seq;
    if (best == kNpos || seq < best_seq) {
      best = c;
      best_seq = seq;
    }
  }
  return best;
}

std::vector<Packet> DownlinkQueue::pop_joint(std::size_t max_streams) {
  std::vector<Packet> out;
  if (size_ == 0 || max_streams == 0) return out;
  // First packet per distinct client, taken in global arrival order ==
  // the max_streams clients with the smallest front sequence numbers.
  std::vector<std::pair<std::int64_t, std::size_t>> fronts;
  fronts.reserve(subs_.size());
  for (std::size_t c = 0; c < subs_.size(); ++c) {
    if (!subs_[c].empty()) fronts.emplace_back(subs_[c].front().seq, c);
  }
  if (fronts.size() > max_streams) {
    std::nth_element(fronts.begin(), fronts.begin() + (max_streams - 1),
                     fronts.end());
    fronts.resize(max_streams);
  }
  std::sort(fronts.begin(), fronts.end());
  out.reserve(fronts.size());
  for (const auto& [seq, c] : fronts) {
    out.push_back(subs_[c].front().pkt);
    subs_[c].pop_front();
    --size_;
  }
  return out;
}

std::optional<Packet> DownlinkQueue::pop() {
  const std::size_t c = head_client();
  if (c == kNpos) return std::nullopt;
  Packet p = subs_[c].front().pkt;
  subs_[c].pop_front();
  --size_;
  return p;
}

std::vector<std::size_t> DownlinkQueue::clients_fifo() const {
  std::vector<std::size_t> out;
  out.reserve(subs_.size());
  for (std::size_t c = 0; c < subs_.size(); ++c) {
    if (!subs_[c].empty()) out.push_back(c);
  }
  // Front sequences are unique, so the order is total without a tie-break.
  std::sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
    return subs_[a].front().seq < subs_[b].front().seq;
  });
  return out;
}

const Packet* DownlinkQueue::front_of(std::size_t client) const {
  if (client >= subs_.size() || subs_[client].empty()) return nullptr;
  return &subs_[client].front().pkt;
}

std::size_t DownlinkQueue::pop_aggregate_into(std::size_t client,
                                              const AggLimits& lim,
                                              std::vector<Packet>& out) {
  if (client >= subs_.size()) return 0;
  std::deque<Entry>& sub = subs_[client];
  const std::size_t max_frames = std::max<std::size_t>(lim.max_frames, 1);
  std::size_t frames = 0;
  std::size_t bytes = 0;
  while (!sub.empty() && frames < max_frames) {
    const Packet& p = sub.front().pkt;
    // The head packet always ships (a frame must carry something); later
    // packets only join while the byte budget holds.
    if (frames > 0 && bytes + p.bytes > lim.max_bytes) break;
    bytes += p.bytes;
    out.push_back(p);
    ++frames;
    sub.pop_front();
    --size_;
  }
  return bytes;
}

}  // namespace jmb::net
