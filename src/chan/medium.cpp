#include "chan/medium.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "dsp/resampler.h"

namespace jmb::chan {

namespace {

/// Nominal phase-noise indices per block of receive_into's walk.
constexpr std::uint64_t kBlock = 256;

/// First m in [lo, hi) at which `past(m)` holds (hi if none); `past` must
/// be false then true along m.
template <class Pred>
std::size_t first_where(std::size_t lo, std::size_t hi, Pred past) {
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (past(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

void check_noise_var(double v, const char* where) {
  if (!(std::isfinite(v) && v >= 0.0)) {
    throw std::invalid_argument(std::string(where) +
                                ": noise_var must be finite and >= 0");
  }
}

}  // namespace

Medium::Medium(MediumParams p, std::uint64_t noise_seed)
    : params_(p), noise_rng_(noise_seed) {}

NodeId Medium::add_node(OscillatorParams osc, double noise_var) {
  check_noise_var(noise_var, "Medium::add_node");
  osc.sample_rate_hz = params_.sample_rate_hz;
  nodes_.push_back(Node{Oscillator(osc), noise_var});
  return nodes_.size() - 1;
}

Oscillator& Medium::oscillator_mutable(NodeId id) { return nodes_.at(id).osc; }

void Medium::set_noise_var(NodeId id, double noise_var) {
  check_noise_var(noise_var, "Medium::set_noise_var");
  nodes_.at(id).noise_var = noise_var;
}

void Medium::set_link(NodeId tx, NodeId rx, FadingParams fading) {
  if (tx >= nodes_.size() || rx >= nodes_.size()) {
    throw std::invalid_argument("Medium::set_link: unknown node");
  }
  fading.sample_rate_hz = params_.sample_rate_hz;
  links_[{tx, rx}] = std::make_unique<FadingChannel>(fading);
}

FadingChannel* Medium::link(NodeId tx, NodeId rx) {
  const auto it = links_.find({tx, rx});
  return it == links_.end() ? nullptr : it->second.get();
}

void Medium::evolve_links_to(double t_seconds) {
  if (!std::isfinite(t_seconds)) {
    throw std::invalid_argument("Medium::evolve_links_to: time is not finite");
  }
  for (auto& [key, chan] : links_) chan->evolve_to(t_seconds);
}

void Medium::transmit(NodeId tx, double start_s, cvec samples) {
  if (tx >= nodes_.size()) {
    throw std::invalid_argument("Medium::transmit: unknown node");
  }
  if (!std::isfinite(start_s)) {
    throw std::invalid_argument("Medium::transmit: start time is not finite");
  }
  transmissions_.push_back({tx, start_s, std::move(samples)});
}

void Medium::clear_transmissions() { transmissions_.clear(); }

cvec Medium::receive(NodeId rx, double start_s, std::size_t n) {
  cvec y;
  receive_into({&rx, 1}, start_s, n, {&y, 1});
  return y;
}

void Medium::receive_into(std::span<const NodeId> rxs, double start_s,
                          std::size_t n, std::span<cvec> out) {
  if (out.size() != rxs.size()) {
    throw std::invalid_argument(
        "Medium::receive_into: need one output per receiver");
  }
  for (const NodeId rx : rxs) {
    if (rx >= nodes_.size()) {
      throw std::invalid_argument("Medium::receive_into: unknown node");
    }
  }
  if (!std::isfinite(start_s)) {
    throw std::invalid_argument(
        "Medium::receive_into: start time is not finite");
  }
  // Every draw first, in rxs order: the noise stream advances exactly as
  // consecutive receive() calls would advance it.
  for (std::size_t r = 0; r < rxs.size(); ++r) {
    out[r].resize(n);
    noise_rng_.fill_cgaussian(out[r], nodes_[rxs[r]].noise_var);
  }
  if (n == 0) return;

  // Receiver sample m is taken at true time tm = start_s + m / fs_rx and
  // sees the (multipath) burst at position (tm - t0) * fs_tx. Both
  // oscillators' phase noise is read at nominal index floor(tm * fs).
  // tm, the position and the index never decrease with m, so each pair's
  // in-burst samples form one run of m.
  const double fs = params_.sample_rate_hz;
  const auto time_at = [&](double fs_rx, std::size_t m) {
    return start_s + static_cast<double>(m) / fs_rx;
  };
  const auto index_at = [&](double tm) {
    return static_cast<std::uint64_t>(std::max(0.0, tm * fs));
  };

  std::vector<Pair>& pairs = scratch_.pairs;
  pairs.clear();
  for (const Transmission& t : transmissions_) {
    if (t.samples.empty()) continue;  // a silent burst adds nothing
    const Node& txn = nodes_[t.tx];
    for (std::size_t r = 0; r < rxs.size(); ++r) {
      if (t.tx == rxs[r]) continue;  // half-duplex: a node doesn't hear itself
      const FadingChannel* ch = link(t.tx, rxs[r]);
      if (ch == nullptr) continue;
      const Oscillator& rxo = nodes_[rxs[r]].osc;
      Pair p{.t = &t,
             .ch = ch,
             .r = r,
             .t0 = t.start_s + ch->delay_samples() / fs,
             .fs_tx = txn.osc.sample_rate_hz(),
             .delta_cfo = txn.osc.cfo_hz() - rxo.cfo_hz(),
             .len = t.samples.size() + ch->taps().size() - 1};
      const double fs_rx = rxo.sample_rate_hz();

      // Quick reject: does this burst overlap the window at all?
      const double burst_end = p.t0 + static_cast<double>(p.len) / p.fs_tx;
      const double win_end = start_s + static_cast<double>(n) / fs_rx;
      if (burst_end < start_s || p.t0 > win_end) continue;

      const auto pos_at = [&](std::size_t m) {
        return (time_at(fs_rx, m) - p.t0) * p.fs_tx;
      };
      const double last = static_cast<double>(p.len - 1);
      p.m_lo =
          first_where(0, n, [&](std::size_t m) { return pos_at(m) >= 0.0; });
      p.m_hi = first_where(p.m_lo, n,
                           [&](std::size_t m) { return pos_at(m) > last; });
      if (p.m_lo == p.m_hi) continue;
      p.idx_lo = index_at(time_at(fs_rx, p.m_lo));
      p.idx_hi = index_at(time_at(fs_rx, p.m_hi - 1));
      pairs.push_back(p);
    }
  }
  if (pairs.empty()) return;

  // Block-major walk over the nominal index axis. Per block, every
  // oscillator a pair needs fills its phase noise once; then each pair, in
  // transmission order, adds into its receiver's samples of the block. A
  // sample belongs to one block, so its adds keep the per-pair order.
  std::uint64_t first_idx = pairs.front().idx_lo;
  std::uint64_t last_idx = pairs.front().idx_hi;
  for (const Pair& p : pairs) {
    first_idx = std::min(first_idx, p.idx_lo);
    last_idx = std::max(last_idx, p.idx_hi);
  }
  std::vector<double>& theta = scratch_.theta;
  std::vector<char>& walked = scratch_.walked;
  theta.resize(nodes_.size() * kBlock);
  walked.resize(nodes_.size());
  std::vector<std::size_t>& m_begin = scratch_.m_begin;
  std::vector<std::size_t>& m_end = scratch_.m_end;
  m_begin.assign(rxs.size(), 0);
  m_end.assign(rxs.size(), 0);
  cvec& conv = scratch_.conv;

  for (std::uint64_t b0 = first_idx; b0 <= last_idx; b0 += kBlock) {
    const std::uint64_t b_last = std::min(last_idx, b0 + kBlock - 1);
    const auto in_block = [&](const Pair& p) {
      return p.idx_lo <= b_last && p.idx_hi >= b0;
    };
    if (std::none_of(pairs.begin(), pairs.end(), in_block)) continue;

    // theta of every oscillator the block needs; a receiver reads it at
    // the same index as the transmitter.
    std::fill(walked.begin(), walked.end(), 0);
    const auto walk = [&](NodeId id) {
      if (walked[id] != 0) return;
      walked[id] = 1;
      const auto count = static_cast<std::size_t>(b_last - b0 + 1);
      nodes_[id].osc.phase_noise_run(
          b0, std::span(theta).subspan(id * kBlock, count));
    };
    for (const Pair& p : pairs) {
      if (!in_block(p)) continue;
      walk(p.t->tx);
      walk(rxs[p.r]);
    }
    // Each receiver's samples of the block: a cursor that only moves on.
    for (std::size_t r = 0; r < rxs.size(); ++r) {
      const double fs_rx = nodes_[rxs[r]].osc.sample_rate_hz();
      const auto first_reaching = [&](std::size_t from, std::uint64_t idx) {
        return first_where(from, n, [&](std::size_t m) {
          return index_at(time_at(fs_rx, m)) >= idx;
        });
      };
      m_begin[r] = first_reaching(m_end[r], b0);
      m_end[r] = first_reaching(m_begin[r], b_last + 1);
    }

    for (const Pair& p : pairs) {
      const std::size_t m_first = std::max(m_begin[p.r], p.m_lo);
      const std::size_t m_stop = std::min(m_end[p.r], p.m_hi);
      if (m_first >= m_stop) continue;
      const NodeId rx = rxs[p.r];
      const double fs_rx = nodes_[rx].osc.sample_rate_hz();
      // Locals, so that the stores into y do not force reloads.
      const double t0 = p.t0;
      const double fs_tx = p.fs_tx;
      const double delta_cfo = p.delta_cfo;
      const auto len = static_cast<std::ptrdiff_t>(p.len);

      // The multipath samples this stretch reads: every position's four
      // cubic neighbours, clamped to the burst's first and last sample.
      const auto floor_pos = [&](std::size_t m) {
        return static_cast<std::ptrdiff_t>(
            std::floor((time_at(fs_rx, m) - t0) * fs_tx));
      };
      const std::ptrdiff_t k0 =
          std::max<std::ptrdiff_t>(0, floor_pos(m_first) - 1);
      const std::ptrdiff_t k1 = std::min(len, floor_pos(m_stop - 1) + 3);
      conv.resize(static_cast<std::size_t>(k1 - k0));
      p.ch->apply_range(p.t->samples, static_cast<std::size_t>(k0),
                        static_cast<std::size_t>(k1), conv);
      const cplx* c = conv.data();
      const auto at = [&](std::ptrdiff_t i) {
        return c[std::clamp<std::ptrdiff_t>(i, 0, len - 1) - k0];
      };

      const double* theta_tx = &theta[p.t->tx * kBlock];
      const double* theta_rx = &theta[rx * kBlock];
      cplx* y = out[p.r].data();
      for (std::size_t m = m_first; m < m_stop; ++m) {
        const double tm = time_at(fs_rx, m);
        const double pos = (tm - t0) * fs_tx;
        const auto i1 = static_cast<std::ptrdiff_t>(std::floor(pos));
        const double mu = pos - static_cast<double>(i1);
        cplx s;
        if (i1 >= 1 && i1 + 2 < len) {  // no neighbour needs clamping
          const cplx* q = c + (i1 - 1 - k0);
          s = cubic_segment(q[0], q[1], q[2], q[3], mu);
        } else {
          s = cubic_segment(at(i1 - 1), at(i1), at(i1 + 1), at(i1 + 2), mu);
        }
        if (s == cplx{}) continue;
        // Oscillator rotations evaluated at true time.
        const double det = kTwoPi * delta_cfo * tm;
        const std::uint64_t k = index_at(tm) - b0;
        const double pn = theta_tx[k] - theta_rx[k];
        y[m] += s * phasor(det + pn);
      }
    }
  }
}

}  // namespace jmb::chan
