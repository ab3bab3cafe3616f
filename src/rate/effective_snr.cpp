#include "rate/effective_snr.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "rate/ber.h"

namespace jmb::rate {

double effective_snr(phy::Modulation m, const rvec& subcarrier_snr) {
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
  mean_ber = std::clamp(mean_ber, 1e-15, 0.499);
  return snr_for_ber(m, mean_ber);
}

double effective_snr_db(phy::Modulation m, const rvec& subcarrier_snr) {
  return to_db(effective_snr(m, subcarrier_snr));
}

std::size_t EffectiveSnrMemo::slot(const rvec& subcarrier_snr) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double s : subcarrier_snr) {
    h ^= std::bit_cast<std::uint64_t>(s);
    h *= 0x100000001b3ull;
  }
  return static_cast<std::size_t>(h >> (64 - kSlotBits));
}

double EffectiveSnrMemo::db(phy::Modulation m, const rvec& subcarrier_snr,
                            std::size_t slot) {
  const std::size_t mi = static_cast<std::size_t>(m);
  std::uint32_t& index = slots_[slot];
  Entry* e = index == kEmpty ? nullptr : &entries_[index];
  const bool hit = e && !subcarrier_snr.empty() &&
                   e->snr.size() == subcarrier_snr.size() &&
                   std::memcmp(e->snr.data(), subcarrier_snr.data(),
                               subcarrier_snr.size() * sizeof(double)) == 0;
  if (hit && e->db[mi]) return *e->db[mi];
  // Evaluate before touching the memo, so a throw cannot poison it.
  const double db = effective_snr_db(m, subcarrier_snr);
  if (!hit) {
    if (!e) {
      index = static_cast<std::uint32_t>(entries_.size());
      e = &entries_.emplace_back();
    }
    e->snr = subcarrier_snr;
    e->db.fill(std::nullopt);
  }
  e->db[mi] = db;
  return db;
}

double EffectiveSnrs::db(phy::Modulation m) {
  std::optional<double>& cached = db_[static_cast<std::size_t>(m)];
  if (!cached) {
    cached = memo_ ? memo_->db(m, snr_, slot_) : effective_snr_db(m, snr_);
  }
  return *cached;
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
    if (link.db(rates[i].modulation) >= thr[i]) return i;
  }
  return std::nullopt;
}

std::optional<std::size_t> select_rate(const rvec& subcarrier_snr) {
  EffectiveSnrs link(subcarrier_snr);
  return select_rate(link);
}

std::optional<std::size_t> select_rate_flat(double snr_db) {
  return select_rate(rvec(phy::kNumDataCarriers, from_db(snr_db)));
}

}  // namespace jmb::rate
