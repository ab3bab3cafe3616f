// Effective SNR (Halperin et al.): collapse a frequency-selective set of
// per-subcarrier SNRs into the single flat-channel SNR that would produce
// the same average uncoded BER, per constellation. Rate selection then
// compares the effective SNR against per-rate thresholds, through a
// certified bracket that decides almost every comparison without the
// bisection that defines the exact value.
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

/// A certified bracket on effective_snr_db(m, subcarrier_snr): the exact
/// double lies in [lo_db, hi_db]. Either a narrow certified bracket
/// (~8.7e-5 dB wide) or, with `exact`, the exact double itself (lo_db ==
/// hi_db). Rate and delivery decisions need only the bracket unless a
/// threshold or a delivery draw falls inside it. 32 bytes.
struct EffectiveSnrBound {
  double lo_db = 0.0;
  double hi_db = 0.0;
  /// The clamped mean BER t: the exact value is to_db(snr_for_ber(m, t)).
  double mean_ber = 0.0;
  bool exact = false;
};
static_assert(sizeof(EffectiveSnrBound) <= 32);

/// Guard bands of effective_snr_bound and rate::delivered (DESIGN.md §7,
/// "Certified brackets"). The bracket is x̂(1 ± kBoundHalfWidth) around
/// the estimate x̂ = snr_for_ber_estimate(m, t), accepted only if
///   ber(m, x̂(1 − δ)) > t(1 + kBoundBerGuard) and
///   ber(m, x̂(1 + δ)) < t(1 − kBoundBerGuard).
/// Relevant crossings have t ≥ 1e-15, so the erfc argument y =
/// √(k·snr)/√2 stays below 8.1. Rounding that argument by ≤ 3 ulp moves
/// erfc by ≤ 2y²·3 ulp ≈ 9e-14 relative; glibc's few-ulp erfc and the two
/// constant multiplies add ~1e-15. So ber() is within ~1e-13 of the true
/// monotone curve, kBoundBerGuard is ≥ 10⁶ times that, and every
/// bisection node outside the bracket branches as the certificate says.
/// kBoundDbGuard widens the dB ends and kBoundPerGuard the PER bounds;
/// each is ≥ 10⁴ times the few-ulp log10/pow error it covers. A certified
/// decision is therefore one the bisection makes.
inline constexpr double kBoundHalfWidth = 1e-5;  ///< δ, relative in SNR
inline constexpr double kBoundBerGuard = 1e-7;   ///< ε, relative in BER
inline constexpr double kBoundDbGuard = 1e-9;    ///< g, dB
inline constexpr double kBoundPerGuard = 1e-9;   ///< relative in PER

/// The certified bracket of effective_snr_db(m, subcarrier_snr): the exact
/// mean BER t (48 ber() calls for 48 subcarriers), the closed-form root
/// estimate, and two certifying ber() calls. When the certificate fails,
/// or the bracket leaves snr_for_ber's domain (1e-6, 1e9), runs the
/// bisection and returns the exact double (`exact`). Throws as
/// effective_snr does.
[[nodiscard]] EffectiveSnrBound effective_snr_bound(
    phy::Modulation m, const rvec& subcarrier_snr);

inline constexpr std::size_t kNumModulations =
    static_cast<std::size_t>(phy::Modulation::kQam64) + 1;

/// Effective-SNR brackets of recently seen link states, keyed by content,
/// so a run that draws the same few pool entries thousands of times
/// prices each once. Direct-mapped: a state's slot is picked by an FNV-1a
/// hash of its SNRs' bit patterns, and a lookup hits only when the slot
/// holds a vector of the same size with the same bits (memcmp). A hit
/// therefore returns the bracket effective_snr_bound computed from exactly
/// these bits, or the exact double a caller settled it to. A colliding
/// state evicts the slot. Not thread-safe: one per MAC run.
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

  /// effective_snr_bound(m, subcarrier_snr), computed only if slot `slot`
  /// (= slot(subcarrier_snr)) does not already hold it. Throws as
  /// effective_snr does; a throw leaves the memo unchanged.
  [[nodiscard]] EffectiveSnrBound bound(phy::Modulation m,
                                        const rvec& subcarrier_snr,
                                        std::size_t slot);

  /// Replace the held bound of (m, subcarrier_snr) by `exact`, its exact
  /// form, if slot `slot` still holds that state.
  void settle(phy::Modulation m, const rvec& subcarrier_snr, std::size_t slot,
              const EffectiveSnrBound& exact);

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;
  struct Entry {
    rvec snr;
    std::array<EffectiveSnrBound, kNumModulations> bound;
    std::uint8_t priced = 0;  ///< bit m set: bound[m] is held
  };
  /// The entry holding `subcarrier_snr` in `slot`, or nullptr.
  [[nodiscard]] Entry* find(const rvec& subcarrier_snr, std::size_t slot);

  std::vector<std::uint32_t> slots_;  ///< index into entries_, or kEmpty
  std::vector<Entry> entries_;        ///< at most one per slot
};

/// One link state's effective SNRs, each modulation's bracket priced at
/// most once, so the rate pick and every delivery draw on that state share
/// one evaluation. With a memo, states seen earlier in the memo's lifetime
/// reuse its brackets too. Owns the per-subcarrier SNRs, so it cannot
/// dangle; the memo must outlive every call.
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
    priced_ = 0;
    memo_ = memo;
    if (memo_) slot_ = EffectiveSnrMemo::slot(snr_);
  }

  /// effective_snr_bound(m, ...) of the held SNRs, priced on first use.
  [[nodiscard]] const EffectiveSnrBound& bound(phy::Modulation m);

  /// effective_snr_db(m, ...) of the held SNRs, exactly: settles the
  /// bracket (and the memo's copy) by bisection if it is not exact yet.
  [[nodiscard]] double db(phy::Modulation m);

  /// db(m) >= thr_db, from the bracket when it decides.
  [[nodiscard]] bool meets(phy::Modulation m, double thr_db);

 private:
  /// bound_[m], priced on first use.
  [[nodiscard]] EffectiveSnrBound& priced(phy::Modulation m);

  rvec snr_;
  std::array<EffectiveSnrBound, kNumModulations> bound_;
  std::uint8_t priced_ = 0;  ///< bit m set: bound_[m] is priced
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

}  // namespace jmb::rate
