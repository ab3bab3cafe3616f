#include "rate/effective_snr.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "rate/ber.h"
#include "simd/kernels.h"

namespace jmb::rate {

namespace {

/// Throws on no subcarriers, or on a NaN SNR (naming its subcarrier).
/// std::max would pass a NaN through and the link would read as dead.
void check_snrs(const rvec& subcarrier_snr) {
  if (subcarrier_snr.empty()) {
    throw std::invalid_argument("effective_snr: no subcarriers");
  }
  for (std::size_t k = 0; k < subcarrier_snr.size(); ++k) {
    if (std::isnan(subcarrier_snr[k])) {
      throw std::invalid_argument("effective_snr: NaN SNR on subcarrier " +
                                  std::to_string(k));
    }
  }
}

/// Clamp a mean BER away from the solver's domain edges.
double clamp_target(double mean_ber) {
  return std::clamp(mean_ber, 1e-15, 0.499);
}

/// The clamped mean BER over the subcarriers: the effective SNR's target.
double mean_ber_target(phy::Modulation m, const rvec& subcarrier_snr) {
  check_snrs(subcarrier_snr);
  double mean_ber = 0.0;
  for (const double s : subcarrier_snr) mean_ber += ber(m, std::max(s, 0.0));
  return clamp_target(mean_ber / static_cast<double>(subcarrier_snr.size()));
}

/// The bracket around the root estimate at the centre of [t_lo, t_hi],
/// if it certifies for every target in the interval: every bisection
/// node below it sees ber > t_hi(1 + ε) ≥ t and moves lo up, every node
/// above it sees ber < t_lo(1 − ε) ≤ t and moves hi down, so
/// snr_for_ber's result for any t in [t_lo, t_hi] lies in it (to within
/// the final sqrt's rounding, which g covers).
std::optional<EffectiveSnrBound> certify(phy::Modulation m, double t_lo,
                                         double t_hi) {
  // NaN fails every test below.
  const double x = snr_for_ber_estimate(m, 0.5 * (t_lo + t_hi));
  const double lo = x * (1.0 - kBoundHalfWidth);
  const double hi = x * (1.0 + kBoundHalfWidth);
  if (lo > 1e-6 && hi < 1e9 && ber(m, lo) > t_hi * (1.0 + kBoundBerGuard) &&
      ber(m, hi) < t_lo * (1.0 - kBoundBerGuard)) {
    return EffectiveSnrBound{to_db(lo) - kBoundDbGuard,
                             to_db(hi) + kBoundDbGuard, false};
  }
  return std::nullopt;
}

/// The exact double at the clamped mean BER t, as a bound.
EffectiveSnrBound exact_bound(phy::Modulation m, double t) {
  const double db = to_db(snr_for_ber(m, t));
  return {db, db, true};
}

}  // namespace

MeanBerInterval mean_ber_interval(phy::Modulation m,
                                  const rvec& subcarrier_snr) {
  if (subcarrier_snr.empty()) check_snrs(subcarrier_snr);  // throws
  const BerCurve c = ber_curve(m);
  const double k = 0.5 / c.per_snr;
  const simd::Kernels& kernels = simd::active_kernels();
  const double* const table = erfc_table();
  // The kernel fills each chunk's terms lane by lane; they are summed here
  // in subcarrier order, so t̃ is the same double on every backend.
  constexpr std::size_t kChunk = 64;
  double terms[kChunk];
  double sum = 0.0;
  const std::size_t n = subcarrier_snr.size();
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    kernels.erfc_sqrt(subcarrier_snr.data() + i, k, table, len, terms);
    for (std::size_t j = 0; j < len; ++j) sum += terms[j];
  }
  // A NaN SNR makes a NaN term, and no other input does.
  if (std::isnan(sum)) check_snrs(subcarrier_snr);  // throws
  const double mean = sum / static_cast<double>(n) * (0.5 * c.scale);
  return {mean * (1.0 - kMeanBerTolerance) - kMeanBerFloor,
          mean * (1.0 + kMeanBerTolerance) + kMeanBerFloor};
}

EffectiveSnrBound effective_snr_bound(phy::Modulation m,
                                      const rvec& subcarrier_snr) {
  const MeanBerInterval t = mean_ber_interval(m, subcarrier_snr);
  if (auto b = certify(m, clamp_target(t.lo), clamp_target(t.hi))) return *b;
  // An outage state, where the curve is too flat to certify (or has no
  // root in the domain): the bisection.
  return exact_bound(m, mean_ber_target(m, subcarrier_snr));
}

std::size_t EffectiveSnrMemo::slot(const rvec& subcarrier_snr) {
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  const auto step = [](std::uint64_t h, double s) {
    return (h ^ std::bit_cast<std::uint64_t>(s)) * kPrime;
  };
  // Word i goes to lane i % 4: four independent multiply chains.
  std::uint64_t h0 = kBasis, h1 = kBasis, h2 = kBasis, h3 = kBasis;
  const double* const s = subcarrier_snr.data();
  const std::size_t n = subcarrier_snr.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    h0 = step(h0, s[i]);
    h1 = step(h1, s[i + 1]);
    h2 = step(h2, s[i + 2]);
    h3 = step(h3, s[i + 3]);
  }
  if (i < n) h0 = step(h0, s[i]);
  if (i + 1 < n) h1 = step(h1, s[i + 1]);
  if (i + 2 < n) h2 = step(h2, s[i + 2]);
  const std::uint64_t h = ((((h0 ^ h1) * kPrime) ^ h2) * kPrime ^ h3) * kPrime;
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
                                          std::size_t slot, bool exact) {
  const std::size_t mi = static_cast<std::size_t>(m);
  Entry* e = find(subcarrier_snr, slot);
  if (e && (e->priced >> mi & 1u) && (e->bound[mi].exact || !exact)) {
    return e->bound[mi];
  }
  // Evaluate before touching the memo, so a throw cannot poison it.
  const EffectiveSnrBound b =
      exact ? exact_bound(m, mean_ber_target(m, subcarrier_snr))
            : effective_snr_bound(m, subcarrier_snr);
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

const EffectiveSnrBound& EffectiveSnrs::priced(phy::Modulation m,
                                               bool exact) {
  const std::size_t mi = static_cast<std::size_t>(m);
  EffectiveSnrBound& b = bound_[mi];
  if (!(priced_ >> mi & 1u) || (exact && !b.exact)) {
    if (memo_) {
      b = memo_->bound(m, snr_, slot_, exact);
    } else {
      b = exact ? exact_bound(m, mean_ber_target(m, snr_))
                : effective_snr_bound(m, snr_);
    }
    priced_ |= static_cast<std::uint8_t>(1u << mi);
  }
  return b;
}

const EffectiveSnrBound& EffectiveSnrs::bound(phy::Modulation m) {
  return priced(m, false);
}

double EffectiveSnrs::db(phy::Modulation m) { return priced(m, true).lo_db; }

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
