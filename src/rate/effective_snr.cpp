#include "rate/effective_snr.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "rate/ber.h"

namespace jmb::rate {

namespace {

/// The clamped mean BER over the subcarriers: effective_snr's target.
double mean_ber_target(phy::Modulation m, const rvec& subcarrier_snr) {
  if (subcarrier_snr.empty()) {
    throw std::invalid_argument("effective_snr: no subcarriers");
  }
  double mean_ber = 0.0;
  for (std::size_t k = 0; k < subcarrier_snr.size(); ++k) {
    const double s = subcarrier_snr[k];
    // std::max would pass a NaN through and the link would read as dead.
    if (std::isnan(s)) {
      throw std::invalid_argument("effective_snr: NaN SNR on subcarrier " +
                                  std::to_string(k));
    }
    mean_ber += ber(m, std::max(s, 0.0));
  }
  mean_ber /= static_cast<double>(subcarrier_snr.size());
  // Clamp away from the solver's domain edges.
  return std::clamp(mean_ber, 1e-15, 0.499);
}

/// Replace `b` by the exact double its mean BER defines.
void make_exact(phy::Modulation m, EffectiveSnrBound& b) {
  b.lo_db = b.hi_db = to_db(snr_for_ber(m, b.mean_ber));
  b.exact = true;
}

}  // namespace

double effective_snr(phy::Modulation m, const rvec& subcarrier_snr) {
  return snr_for_ber(m, mean_ber_target(m, subcarrier_snr));
}

double effective_snr_db(phy::Modulation m, const rvec& subcarrier_snr) {
  return to_db(effective_snr(m, subcarrier_snr));
}

EffectiveSnrBound effective_snr_bound(phy::Modulation m,
                                      const rvec& subcarrier_snr) {
  EffectiveSnrBound b;
  b.mean_ber = mean_ber_target(m, subcarrier_snr);
  const double t = b.mean_ber;
  const double x = snr_for_ber_estimate(m, t);  // NaN fails every test
  const double lo = x * (1.0 - kBoundHalfWidth);
  const double hi = x * (1.0 + kBoundHalfWidth);
  // snr_for_ber's nodes below `lo` all see ber > t and move lo up, those
  // above `hi` all see ber <= t and move hi down, so its result lies in
  // [lo, hi] (to within the final sqrt's rounding, which g covers).
  if (lo > 1e-6 && hi < 1e9 && ber(m, lo) > t * (1.0 + kBoundBerGuard) &&
      ber(m, hi) < t * (1.0 - kBoundBerGuard)) {
    b.lo_db = to_db(lo) - kBoundDbGuard;
    b.hi_db = to_db(hi) + kBoundDbGuard;
  } else {
    make_exact(m, b);
  }
  return b;
}

std::size_t EffectiveSnrMemo::slot(const rvec& subcarrier_snr) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double s : subcarrier_snr) {
    h ^= std::bit_cast<std::uint64_t>(s);
    h *= 0x100000001b3ull;
  }
  return static_cast<std::size_t>(h >> (64 - kSlotBits));
}

EffectiveSnrMemo::Entry* EffectiveSnrMemo::find(const rvec& subcarrier_snr,
                                                std::size_t slot) {
  const std::uint32_t index = slots_[slot];
  if (index == kEmpty || subcarrier_snr.empty()) return nullptr;
  Entry& e = entries_[index];
  const bool same = e.snr.size() == subcarrier_snr.size() &&
                    std::memcmp(e.snr.data(), subcarrier_snr.data(),
                                subcarrier_snr.size() * sizeof(double)) == 0;
  return same ? &e : nullptr;
}

EffectiveSnrBound EffectiveSnrMemo::bound(phy::Modulation m,
                                          const rvec& subcarrier_snr,
                                          std::size_t slot) {
  const std::size_t mi = static_cast<std::size_t>(m);
  Entry* e = find(subcarrier_snr, slot);
  if (e && (e->priced >> mi & 1u)) return e->bound[mi];
  // Evaluate before touching the memo, so a throw cannot poison it.
  const EffectiveSnrBound b = effective_snr_bound(m, subcarrier_snr);
  if (!e) {
    std::uint32_t& index = slots_[slot];
    if (index == kEmpty) {
      index = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back();
    }
    e = &entries_[index];
    e->snr = subcarrier_snr;
    e->priced = 0;
  }
  e->bound[mi] = b;
  e->priced |= static_cast<std::uint8_t>(1u << mi);
  return b;
}

void EffectiveSnrMemo::settle(phy::Modulation m, const rvec& subcarrier_snr,
                              std::size_t slot,
                              const EffectiveSnrBound& exact) {
  const std::size_t mi = static_cast<std::size_t>(m);
  Entry* e = find(subcarrier_snr, slot);
  if (e && (e->priced >> mi & 1u)) e->bound[mi] = exact;
}

EffectiveSnrBound& EffectiveSnrs::priced(phy::Modulation m) {
  const std::size_t mi = static_cast<std::size_t>(m);
  EffectiveSnrBound& b = bound_[mi];
  if (!(priced_ >> mi & 1u)) {
    b = memo_ ? memo_->bound(m, snr_, slot_) : effective_snr_bound(m, snr_);
    priced_ |= static_cast<std::uint8_t>(1u << mi);
  }
  return b;
}

const EffectiveSnrBound& EffectiveSnrs::bound(phy::Modulation m) {
  return priced(m);
}

double EffectiveSnrs::db(phy::Modulation m) {
  EffectiveSnrBound& b = priced(m);
  if (!b.exact) {
    make_exact(m, b);
    if (memo_) memo_->settle(m, snr_, slot_, b);
  }
  return b.lo_db;
}

bool EffectiveSnrs::meets(phy::Modulation m, double thr_db) {
  const EffectiveSnrBound& b = bound(m);
  if (b.lo_db >= thr_db) return true;
  if (b.hi_db < thr_db) return false;
  return db(m) >= thr_db;  // the threshold lies inside the bracket
}

const rvec& rate_thresholds_db() {
  // Required effective SNR per rate_set() entry, anchored to 802.11a
  // receiver-sensitivity spacing and validated against this repo's PHY
  // waterfalls (tests/test_rate.cpp crosschecks the ordering and spacing).
  static const rvec kThresholds{4.0, 6.0, 7.0, 9.5, 12.5, 16.0, 19.5, 21.0};
  return kThresholds;
}

std::optional<std::size_t> select_rate(EffectiveSnrs& link) {
  const auto& rates = phy::rate_set();
  const auto& thr = rate_thresholds_db();
  // Top down: the first rate that meets its threshold is the highest such
  // index. At good SNR that costs one modulation's evaluation, not eight.
  for (std::size_t i = rates.size(); i-- > 0;) {
    if (link.meets(rates[i].modulation, thr[i])) return i;
  }
  return std::nullopt;
}

std::optional<std::size_t> select_rate(const rvec& subcarrier_snr) {
  EffectiveSnrs link(subcarrier_snr);
  return select_rate(link);
}

}  // namespace jmb::rate
