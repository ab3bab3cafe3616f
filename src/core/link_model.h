// Closed-form / Monte-Carlo link-level model of joint beamforming under
// phase misalignment.
//
// Given a channel snapshot H and a per-AP phase error vector phi, the
// actual channel at transmit time is H' = H * diag(e^{j phi_i}); with the
// zero-forcing weights W computed from H, client c sees
//   y_c = [H' W x]_c = g_cc x_c + sum_{j != c} g_cj x_j + n,
// and the leakage terms g_cj are what misalignment costs. This is the
// engine behind Fig. 6 (SNR reduction vs misalignment) and the fast path
// for the throughput sweeps (Figs. 9-13), with the phase-error scale
// calibrated against the sample-level system (Fig. 7).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "core/precoder.h"
#include "dsp/rng.h"
#include "phy/params.h"

namespace jmb::core {

/// Residual per-slave phase-error sigma (radians) the closed-form link
/// model runs at. The value is the paper's: its Fig. 7 reports a median
/// misalignment of 0.017 rad and a 95th percentile below 0.05 rad, which
/// sigma ~ 0.02 matches. The repo's own sample-level Fig. 7 is coarser
/// (`fig07_phase_cdf 1` prints a median of 0.0229 rad and a 95th
/// percentile of 0.0879 rad); ROADMAP.md tracks re-deriving sigma from it.
inline constexpr double kCalibratedPhaseSigma = 0.02;

/// Random i.i.d. Rayleigh channel set (unit mean power per link), the
/// "100 different random channel matrices" of the paper's Fig. 6 method.
[[nodiscard]] ChannelMatrixSet random_channel_set(
    std::size_t n_clients, std::size_t n_tx, Rng& rng,
    std::size_t n_subcarriers = 52);

/// Channel set with per-link mean power gains: gains[client][tx].
/// `rice_k` adds a Rician line-of-sight component per link (K-factor);
/// conference-room channels are LOS-ish and well conditioned (the paper
/// treats K in N log(SNR/K) as constant for "natural channel matrices").
[[nodiscard]] ChannelMatrixSet random_channel_set_with_gains(
    const std::vector<std::vector<double>>& gains, Rng& rng,
    std::size_t n_subcarriers = 52, double rice_k = 0.0);

/// Channel set in the paper's "well conditioned" regime: per subcarrier,
/// client rows are orthogonalized (Gram-Schmidt on an i.i.d. draw) and
/// scaled so row c's total power equals sum_a gains[c][a]. The paper's
/// evaluation leans on this regime explicitly — "natural channel matrices
/// can be considered random and well conditioned, and hence K can
/// essentially be treated as constant" — and its measured linear scaling
/// implies the conditioning term stayed bounded in its testbed. Use this
/// for throughput-scaling sweeps; use random_channel_set_with_gains for
/// conditioning-sensitive studies.
[[nodiscard]] ChannelMatrixSet well_conditioned_channel_set(
    const std::vector<std::vector<double>>& gains, Rng& rng);

/// Per-client post-beamforming SINR given per-AP phase errors.
struct SinrReport {
  rvec sinr;                ///< linear, per client (mean over subcarriers)
  rvec snr_no_interference; ///< signal power / noise only
  /// Per-client, per-subcarrier SINR (linear): [client][used subcarrier].
  std::vector<rvec> sinr_per_subcarrier;
};

/// Evaluate joint ZF beamforming from channel snapshot `h` when the APs'
/// actual phases differ from the snapshot by `phase_err` (radians, one per
/// transmit antenna; the lead's entry is conventionally 0).
[[nodiscard]] SinrReport beamforming_sinr(const ChannelMatrixSet& h,
                                          const rvec& phase_err,
                                          double noise_power);

/// Same, with a precomputed precoder (avoids re-inverting H per call —
/// use this inside MAC simulations that query SINRs per transmission).
/// The precoder must fit `h`: the same subcarrier count and n_tx, and one
/// stream per client (a greedy-selected precoder serving fewer streams
/// than `h` has clients does not); otherwise std::invalid_argument names
/// the field. All subcarriers go through one dispatched kernel
/// (simd::Kernels::beam_gains) with the per-subcarrier loop's exact
/// arithmetic.
[[nodiscard]] SinrReport beamforming_sinr(const ChannelMatrixSet& h,
                                          const Precoder& precoder,
                                          const rvec& phase_err,
                                          double noise_power);

/// Average SNR reduction (dB) caused by a fixed misalignment at every
/// slave, versus perfect alignment — one point of Fig. 6. Averages over
/// `trials` random channels.
[[nodiscard]] double snr_reduction_db(std::size_t n_clients, std::size_t n_tx,
                                      double misalignment_rad, double snr_db,
                                      std::size_t trials, Rng& rng);

/// Interference-to-noise ratio (dB) at a nulled client when each slave
/// carries N(0, sigma^2) phase error — the fast-path analogue of Fig. 8.
[[nodiscard]] double expected_inr_db(const ChannelMatrixSet& h,
                                     double phase_err_sigma, double noise_power,
                                     std::size_t trials, Rng& rng);

/// Per-client subcarrier SINRs under random phase errors, for feeding the
/// MAC simulations: draws one phase-error vector per call.
[[nodiscard]] std::vector<rvec> jmb_subcarrier_sinrs(const ChannelMatrixSet& h,
                                                     const Precoder& precoder,
                                                     double phase_err_sigma,
                                                     double noise_power,
                                                     Rng& rng);

/// Closed-form MAC link states: one joint transmission = one entry of a
/// pre-drawn pool. Entry i is the i-th call, in order, of
/// jmb_subcarrier_sinrs(h, precoder, kCalibratedPhaseSigma, 1.0, rng), so
/// gains are SNRs over a unit noise floor. `h` is the channel the
/// transmission meets, which need not be the one `precoder` was built
/// from (a CSI sweep precodes from impaired CSI). A non-empty
/// `interference` profile divides every entry: SINR[k] / (1 + I[k % |I|]).
///
/// The MAC asks for one link state per served client per transmission, so
/// lookup number `draw` (counted from 0) returns entry
/// (offset + draw / n_streams) % size, n_streams being the precoder's.
class SinrPool {
 public:
  SinrPool(const ChannelMatrixSet& h, const Precoder& precoder,
           std::size_t size, Rng& rng,
           std::span<const double> interference = {});

  /// `client`'s per-subcarrier SINRs for the next lookup.
  [[nodiscard]] const rvec& next(std::size_t client);

  /// Shift later lookups by `entries` pool entries (a measurement epoch
  /// refreshing the CSI moves to fresh fading draws).
  void set_offset(std::size_t entries) { offset_ = entries; }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Entry i: per-client SINRs [client][subcarrier].
  [[nodiscard]] const std::vector<rvec>& entry(std::size_t i) const {
    return entries_[i];
  }

 private:
  friend class SinrPoolSet;

  [[nodiscard]] const rvec& at(std::size_t draw, std::size_t client) const;

  std::vector<std::vector<rvec>> entries_;
  std::size_t n_streams_ = 1;
  std::size_t offset_ = 0;
  std::size_t draw_ = 0;
};

/// Several SinrPools behind one lookup count: one per user group, or one
/// per active-AP set (MaskedSinrPool). A slot whose precoder could not be
/// built is an outage: its lookups return zero SNR and do not advance the
/// count.
class SinrPoolSet {
 public:
  /// Append a slot: a pool over `h` and `precoder`, or an outage slot when
  /// `precoder` is empty.
  void add(const ChannelMatrixSet& h, const std::optional<Precoder>& precoder,
           std::size_t size, Rng& rng,
           std::span<const double> interference = {});

  /// `client`'s SINRs from slot `slot` for the next lookup.
  [[nodiscard]] const rvec& next(std::size_t slot, std::size_t client);

 private:
  std::vector<std::optional<SinrPool>> slots_;
  rvec outage_ = rvec(phy::kNumDataCarriers, 0.0);
  std::size_t draw_ = 0;
};

/// Link states for a MAC whose joint set shrinks when APs fail: each
/// distinct active-AP mask gets its own reduced-H precoder
/// (Precoder::build_masked) and pool, built on first request from `rng`.
/// Masks that cannot zero-force every stream are outages (see
/// SinrPoolSet). Lookups are deterministic given the mask request order.
class MaskedSinrPool {
 public:
  MaskedSinrPool(const ChannelMatrixSet& h, Workspace& ws, std::size_t size,
                 Rng rng, std::span<const double> interference = {});

  [[nodiscard]] const rvec& next(std::size_t client,
                                 std::span<const std::uint8_t> active_tx);

 private:
  const ChannelMatrixSet* h_;
  Workspace* ws_;
  std::size_t size_;
  Rng rng_;
  rvec interference_;
  std::vector<std::vector<std::uint8_t>> masks_;  ///< slot i's mask
  SinrPoolSet pools_;
};

/// The 802.11 baseline's link state: the client's best AP alone, flat at
/// the link budget (the effective-SNR rate selector reduces real channels
/// to exactly this). `gains` holds the client's linear SNR to each AP;
/// a non-empty `up` restricts the choice to APs with a nonzero entry.
[[nodiscard]] rvec best_ap_snrs(std::span<const double> gains,
                                std::span<const std::uint8_t> up = {});

/// Baseline: client's per-subcarrier SNRs from its best AP alone.
[[nodiscard]] std::vector<rvec> baseline_subcarrier_snrs(
    const ChannelMatrixSet& h, double noise_power);

/// Diversity (Section 8): post-MRT per-subcarrier SNRs at one client when
/// every AP phase-aligns with error sigma.
[[nodiscard]] rvec diversity_subcarrier_snrs(const std::vector<cvec>& h_row,
                                             double phase_err_sigma,
                                             double noise_power, Rng& rng);

}  // namespace jmb::core
