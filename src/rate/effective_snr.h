// Effective SNR (Halperin et al.): collapse a frequency-selective set of
// per-subcarrier SNRs into the single flat-channel SNR that would produce
// the same average uncoded BER, per constellation. Rate selection then
// compares the effective SNR against per-rate thresholds.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dsp/types.h"
#include "phy/params.h"

namespace jmb::rate {

/// Effective SNR (linear) for a constellation given per-subcarrier SNRs.
/// Throws std::invalid_argument on no subcarriers or a NaN SNR (naming the
/// subcarrier).
[[nodiscard]] double effective_snr(phy::Modulation m,
                                   const rvec& subcarrier_snr);

/// Effective SNR in dB from per-subcarrier SNRs in linear units.
[[nodiscard]] double effective_snr_db(phy::Modulation m,
                                      const rvec& subcarrier_snr);

/// One optional effective SNR (dB) per modulation, filled lazily.
using ModulationDbs =
    std::array<std::optional<double>,
               static_cast<std::size_t>(phy::Modulation::kQam64) + 1>;

/// Effective SNRs of recently seen link states, keyed by content, so a
/// run that draws the same few pool entries thousands of times prices
/// each once. Direct-mapped: a state's slot is picked by an FNV-1a hash of
/// its SNRs' bit patterns, and a lookup hits only when the slot holds a
/// vector of the same size with the same bits (memcmp). A hit therefore
/// returns the double effective_snr_db computed from exactly these bits.
/// A colliding state evicts the slot. Not thread-safe: one per MAC run.
class EffectiveSnrMemo {
 public:
  /// 4096 slots: a 10-AP run over a 16-entry pool draws 160 distinct
  /// states, of which ~4% then share a slot (and evict each other every
  /// pool cycle); 256 slots would leave ~46%. A slot is a 4-byte index;
  /// only the states actually seen take an entry.
  static constexpr std::size_t kSlotBits = 12;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;

  EffectiveSnrMemo() : slots_(kSlots, kEmpty) {}

  /// The slot of `subcarrier_snr`: the top kSlotBits of an FNV-1a hash
  /// over its 64-bit patterns (the last multiply mixes every input bit
  /// into them).
  [[nodiscard]] static std::size_t slot(const rvec& subcarrier_snr);

  /// effective_snr_db(m, subcarrier_snr), computed only if slot `slot`
  /// (= slot(subcarrier_snr)) does not already hold it. Throws as
  /// effective_snr does; a throw leaves the memo unchanged.
  [[nodiscard]] double db(phy::Modulation m, const rvec& subcarrier_snr,
                          std::size_t slot);

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;
  struct Entry {
    rvec snr;
    ModulationDbs db;
  };
  std::vector<std::uint32_t> slots_;  ///< index into entries_, or kEmpty
  std::vector<Entry> entries_;        ///< at most one per slot
};

/// One link state's effective SNRs, each modulation's computed at most
/// once, so the rate pick and every PER draw on that state share one
/// evaluation. With a memo, states seen earlier in the memo's lifetime
/// reuse its values too. Owns the per-subcarrier SNRs, so it cannot
/// dangle; the memo must outlive every db() call.
class EffectiveSnrs {
 public:
  EffectiveSnrs() = default;
  explicit EffectiveSnrs(rvec subcarrier_snr,
                         EffectiveSnrMemo* memo = nullptr) {
    assign(std::move(subcarrier_snr), memo);
  }

  /// Take a new link state and forget every cached value.
  void assign(rvec subcarrier_snr, EffectiveSnrMemo* memo = nullptr) {
    snr_ = std::move(subcarrier_snr);
    db_.fill(std::nullopt);
    memo_ = memo;
    if (memo_) slot_ = EffectiveSnrMemo::slot(snr_);
  }

  /// effective_snr_db(m, ...) of the held SNRs, computed on first use.
  [[nodiscard]] double db(phy::Modulation m);

 private:
  rvec snr_;
  ModulationDbs db_;
  EffectiveSnrMemo* memo_ = nullptr;
  std::size_t slot_ = 0;
};

/// Minimum effective SNR (dB) required to run each entry of
/// phy::rate_set() at high delivery probability. Derived from the uncoded
/// BER the 802.11 convolutional code needs at each coding rate; matches
/// our PHY's measured waterfall within ~1 dB.
[[nodiscard]] const rvec& rate_thresholds_db();

/// Highest rate_set() index whose threshold is met, or nullopt if even the
/// base rate won't decode.
[[nodiscard]] std::optional<std::size_t> select_rate(EffectiveSnrs& link);

/// Same, from per-subcarrier SNRs (evaluated once, not cached beyond the
/// call).
[[nodiscard]] std::optional<std::size_t> select_rate(
    const rvec& subcarrier_snr);

/// Same, from a single flat SNR in dB.
[[nodiscard]] std::optional<std::size_t> select_rate_flat(double snr_db);

}  // namespace jmb::rate
