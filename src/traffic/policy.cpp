#include "traffic/policy.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

namespace jmb::traffic {

namespace {
/// Floor for the PF denominator: a never-served client gets a huge but
/// finite priority instead of a division blow-up.
constexpr double kMinEwmaMbps = 1e-6;

/// Cut `items` to the first k of their std::stable_sort order (`before`
/// ranks first, ties keep their input order): an insertion sort into a
/// k-long prefix, O(items * k) with no temporary buffer. A policy passes
/// at most one item per backlogged client and k = the stream count.
template <class Before>
void keep_first_stable(std::vector<std::size_t>& items, std::size_t k,
                       Before before) {
  k = std::min(k, items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::size_t v = items[i];
    std::size_t j = i;  // the prefix is still filling
    if (i >= k) {
      // A full prefix: v must beat its last item, which it displaces.
      if (k == 0 || !before(v, items[k - 1])) continue;
      j = k - 1;
    }
    for (; j > 0 && before(v, items[j - 1]); --j) items[j] = items[j - 1];
    items[j] = v;
  }
  items.resize(k);
}
}  // namespace

std::vector<std::size_t> FifoScheduler::select(
    const net::DownlinkQueue& q, std::size_t max_streams, double /*now*/,
    const net::RateHintFn* /*rate_hint*/) {
  std::vector<std::size_t> out = q.clients_fifo();
  if (out.size() > max_streams) out.resize(max_streams);
  return out;
}

std::vector<std::size_t> PfScheduler::select(
    const net::DownlinkQueue& q, std::size_t max_streams, double /*now*/,
    const net::RateHintFn* rate_hint) {
  // clients_fifo order is the tie-break: equal priorities keep FIFO.
  std::vector<std::size_t> out = q.clients_fifo();
  prio_.resize(out.size());
  order_.resize(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::size_t c = out[i];
    double rate = 1.0;  // rate-blind PF degrades to max-min style fairness
    if (rate_hint && *rate_hint) {
      const double hint = (*rate_hint)(c);
      if (hint > 0.0) rate = hint;
    }
    prio_[i] = rate / std::max(ewma_mbps(c), kMinEwmaMbps);
    order_[i] = i;
  }
  keep_first_stable(order_, max_streams, [&](std::size_t a, std::size_t b) {
    return prio_[a] > prio_[b];
  });
  for (std::size_t& i : order_) i = out[i];
  out.assign(order_.begin(), order_.end());
  return out;
}

void PfScheduler::on_served(std::size_t client, double bytes, double slot_s) {
  if (slot_s <= 0.0) return;
  pending_.emplace_back(client, bytes * 8.0 / slot_s / 1e6);
}

void PfScheduler::on_slot(double slot_s) {
  if (slot_s <= 0.0) {
    pending_.clear();
    return;
  }
  std::size_t max_client = ewma_mbps_.empty() ? 0 : ewma_mbps_.size() - 1;
  for (const auto& [c, rate] : pending_) max_client = std::max(max_client, c);
  if (max_client >= ewma_mbps_.size()) ewma_mbps_.resize(max_client + 1, 0.0);

  const double alpha = std::min(slot_s / tau_s_, 1.0);
  // Classic PF filter: everyone decays, the served add their slot rate.
  for (double& r : ewma_mbps_) r *= 1.0 - alpha;
  for (const auto& [c, rate] : pending_) ewma_mbps_[c] += alpha * rate;
  pending_.clear();
}

std::vector<std::size_t> EdfScheduler::select(
    const net::DownlinkQueue& q, std::size_t max_streams, double /*now*/,
    const net::RateHintFn* /*rate_hint*/) {
  std::vector<std::size_t> out = q.clients_fifo();
  const auto deadline_of = [&](std::size_t c) {
    const net::Packet* p = q.front_of(c);
    if (!p || p->deadline_s <= 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    return p->deadline_s;
  };
  keep_first_stable(out, max_streams, [&](std::size_t a, std::size_t b) {
    return deadline_of(a) < deadline_of(b);
  });
  return out;
}

std::unique_ptr<net::Scheduler> make_scheduler(std::string_view name,
                                               double pf_tau_s) {
  if (name == "fifo") return std::make_unique<FifoScheduler>();
  if (name == "pf") return std::make_unique<PfScheduler>(pf_tau_s);
  if (name == "edf") return std::make_unique<EdfScheduler>();
  throw std::invalid_argument("make_scheduler: unknown policy '" +
                              std::string(name) + "'");
}

}  // namespace jmb::traffic
