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
#include "rate/ber.h"

namespace jmb::rate {

// The effective SNR of per-subcarrier SNRs (linear) for a constellation
// is snr_for_ber(m, t) at their mean BER t, clamped to [1e-15, 0.499];
// EffectiveSnrs::db returns it in dB, exactly. Every entry point below
// throws std::invalid_argument on no subcarriers or a NaN SNR (naming the
// subcarrier).

/// A certified bracket on the effective SNR in dB: the exact double lies
/// in [lo_db, hi_db]. Either a narrow certified bracket
/// (~8.7e-5 dB wide) or, with `exact`, the exact double itself (lo_db ==
/// hi_db). Rate and delivery decisions need only the bracket unless a
/// threshold or a delivery draw falls inside it. 24 bytes.
struct EffectiveSnrBound {
  double lo_db = 0.0;
  double hi_db = 0.0;
  bool exact = false;
};
static_assert(sizeof(EffectiveSnrBound) <= 24);

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

/// Error budget of mean_ber_interval (DESIGN.md §7, "Certified
/// brackets"). The approximate mean t̃ sums erfc_table() pieces (the
/// simd::Kernels::erfc_sqrt kernel) where the exact mean t sums glibc
/// erfc, both over the same SNRs in subcarrier order. Per subcarrier, with
/// u = 2^-53 and y ≤ 8.5 the erfc argument:
///  - the table's Lagrange remainder: ≤ kErfcTableRemainder = 5e-11,
///    checked per piece as the table is built (a looser recomputation in
///    ErfcApprox.* gives at most 3.7e-11);
///  - rounding the coefficients to double and Horner's 16 roundings in
///    u ∈ [−½, ½): ≤ 18u·Σ|bₙ|2⁻ⁿ/erfc(y) ≤ 18u·3 ≈ 6e-15;
///  - the kernel's argument √(s·k) vs ber()'s (≤ 4 ulp apart): erfc moves
///    by ≤ 2y²·4u ≈ 6e-14;
///  - glibc erfc's few ulp and ber()'s two constant multiplies: ~1e-15.
/// Then each side's 47-addition sum (≤ 47u relative, terms ≥ 0), its
/// division by n and the scale multiply add ≤ 2·(47 + 2)u ≈ 1.1e-14. The
/// total is < 5.1e-11, and η = kMeanBerTolerance is ≥ 100 times the table
/// remainder bound, so also ≥ 190 times the total; the two roundings of
/// t̃(1 ± η) ∓ α are covered by the same slack. A subcarrier with y ≥ 8.5
/// adds 0 to t̃ but up to c_m·½·erfc(8.5) ≤ 1.38e-33 to t: α =
/// kMeanBerFloor covers that absolutely. Hence t lies in [t̃(1 − η) − α,
/// t̃(1 + η) + α], and, the clamp being monotone, the clamped t in the
/// clamped interval.
inline constexpr double kMeanBerTolerance = 1e-8;  ///< η, relative
inline constexpr double kMeanBerFloor = 2e-33;     ///< α, absolute
static_assert(kMeanBerTolerance >= 100 * kErfcTableRemainder);

/// An interval [lo, hi] that contains the unclamped mean BER over the
/// subcarriers (the effective SNR's target before its clamp to
/// [1e-15, 0.499]): t̃(1 ∓ η) ∓ α from the erfc_sqrt kernel.
struct MeanBerInterval {
  double lo = 0.0;
  double hi = 0.0;
};
[[nodiscard]] MeanBerInterval mean_ber_interval(phy::Modulation m,
                                                const rvec& subcarrier_snr);

/// The certified bracket of the effective SNR in dB: the
/// clamped mean_ber_interval, the closed-form root estimate at its centre,
/// and two certifying ber() calls against its ends. When that certificate
/// fails, or the bracket leaves snr_for_ber's domain (1e-6, 1e9), computes
/// the exact mean BER (one ber() call per subcarrier), runs the bisection
/// and returns the exact double (`exact`).
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
/// these bits, or the exact double. A colliding state evicts the slot.
/// Not thread-safe: one per MAC run.
class EffectiveSnrMemo {
 public:
  /// 4096 slots: a 10-AP run over a 16-entry pool draws 160 distinct
  /// states, of which ~4% then share a slot (and evict each other every
  /// pool cycle; EffSnrMemo.PoolStatesRarelyShareASlot measures it); 256
  /// slots would leave ~46%. A slot is a 4-byte index; only the states
  /// actually seen take an entry.
  static constexpr std::size_t kSlotBits = 12;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;

  EffectiveSnrMemo() : slots_(kSlots, kEmpty) {}

  /// The slot of `subcarrier_snr`: the top kSlotBits of an FNV-1a hash
  /// over its 64-bit patterns, word i hashed in lane i % 4 so the four
  /// multiply chains overlap, the lanes then folded in order by the same
  /// xor-multiply step (the last multiply mixes every input bit into the
  /// top bits).
  [[nodiscard]] static std::size_t slot(const rvec& subcarrier_snr);

  /// effective_snr_bound(m, subcarrier_snr), or with `exact` the exact
  /// double, computed only if slot `slot` (= slot(subcarrier_snr)) does
  /// not already hold it; an exact value replaces a held bracket. A throw
  /// leaves the memo unchanged.
  [[nodiscard]] EffectiveSnrBound bound(phy::Modulation m,
                                        const rvec& subcarrier_snr,
                                        std::size_t slot, bool exact = false);

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

  /// The effective SNR in dB of the held SNRs, exactly: settles the
  /// bracket (and the memo's copy) if it is not exact yet, and prices no
  /// bracket on first use.
  [[nodiscard]] double db(phy::Modulation m);

  /// db(m) >= thr_db, from the bracket when it decides.
  [[nodiscard]] bool meets(phy::Modulation m, double thr_db);

 private:
  /// bound_[m], priced on first use; with `exact`, the exact double.
  [[nodiscard]] const EffectiveSnrBound& priced(phy::Modulation m,
                                                bool exact);

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
