// Joint beamforming precoders (Section 4 and Section 8).
//
// Multiplexing: per-subcarrier zero-forcing, W_k = pinv(H_k), scaled by a
// single scalar so no AP antenna exceeds its power budget ("the APs also
// need to normalize H^{-1} to respect power constraints"). The effective
// channel every client sees is scale * I.
//
// One build/apply interface covers three weight rules selected by
// phy::PrecoderKind:
//
//   kZf   W_k = pinv(H_k)            — the paper's choice, and what
//                                      Precoder::build() computes.
//   kRzf  W_k = H^H (H H^H + a I)^-1 — regularized ZF; with the ridge `a`
//                                      matched to noise + CSI-error power
//                                      this is the MMSE transmit filter.
//   kConj W_k = H_k^H                — conjugate beamforming, the
//                                      multi-stream generalization of the
//                                      Section 8 diversity mode.
//
// All kinds share the single global power scale and the packed SoA layout,
// so synthesis, link evaluation, and the SIMD apply kernels are oblivious
// to which rule built the weights.
//
// Diversity: distributed maximum-ratio transmission to one client,
// w_i = h_i* / |h_i| per AP — SNR grows ~ N^2 with coherent combining.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/types.h"
#include "obs/sink.h"
#include "phy/precoding.h"
#include "simd/aligned.h"

namespace jmb {
struct PinvScratch;
class Workspace;
}

namespace jmb::core {

/// How to build the weights. Default-constructed = plain ZF, as build().
struct PrecoderConfig {
  phy::PrecoderKind kind = phy::PrecoderKind::kZf;
  /// Each AP antenna's average transmit power budget per subcarrier.
  double per_antenna_power = 1.0;
  /// Tikhonov ridge for kRzf (ignored by the other kinds).
  double ridge = 0.0;

  /// The MMSE-matched ridge: n_streams * effective_noise / power, where
  /// effective_noise should include receiver noise plus the residual
  /// CSI-error power (phy::csi_error_power) times the mean link power.
  [[nodiscard]] static double mmse_ridge(std::size_t n_streams,
                                         double effective_noise,
                                         double per_antenna_power = 1.0) {
    return static_cast<double>(n_streams) * effective_noise /
           per_antenna_power;
  }
};

/// Precoder across all used subcarriers (zoo of weight rules; see above).
class Precoder {
 public:
  /// Build from the measured channel set. `per_antenna_power` is each AP
  /// antenna's average transmit power budget per subcarrier. Returns
  /// nullopt if any subcarrier's channel is (numerically) rank deficient.
  /// A non-null `obs` receives conditioning and zero-forcing-leakage
  /// distributions sampled over a few strided subcarriers.
  [[nodiscard]] static std::optional<Precoder> build(
      const ChannelMatrixSet& h, double per_antenna_power = 1.0,
      const obs::ObsSink* obs = nullptr);

  /// Zoo entry point: build weights for `cfg.kind`. When the channel has
  /// more clients than AP antennas the spatially most separable n_tx users
  /// are greedy-selected first (see greedy_select); selected_users() then
  /// reports who made the cut. With cfg.kind == kZf and n_clients <= n_tx
  /// this is bitwise-identical to build(). Warm rebuilds go through
  /// rebuild_kind().
  [[nodiscard]] static std::optional<Precoder> build_kind(
      const ChannelMatrixSet& h, const PrecoderConfig& cfg,
      const obs::ObsSink* obs = nullptr);

  /// Resilience build: derive weights from the *reduced* H formed by the
  /// transmit antennas with a nonzero entry in `active_tx` (1 per AP), the
  /// re-derivation a quarantine triggers. Weight matrices keep full n_tx
  /// rows — excluded APs get zero rows — so downstream synthesis indexing
  /// is unchanged. Requires active count >= n_clients; with every antenna
  /// active this is bitwise-identical to build().
  [[nodiscard]] static std::optional<Precoder> build_masked(
      const ChannelMatrixSet& h, std::span<const std::uint8_t> active_tx,
      Workspace& ws, double per_antenna_power = 1.0,
      const obs::ObsSink* obs = nullptr);

  /// build_masked for any precoder kind.
  [[nodiscard]] static std::optional<Precoder> build_masked(
      const ChannelMatrixSet& h, const PrecoderConfig& cfg,
      std::span<const std::uint8_t> active_tx, Workspace& ws,
      const obs::ObsSink* obs = nullptr);

  /// In-place rebuild reusing this object's weight/packed capacity: after
  /// the first build of a given shape, rebuilding every coherence interval
  /// allocates nothing (pass obs == nullptr; the conditioning probes
  /// allocate). Values are bitwise-identical to a fresh build_kind() with
  /// the same inputs. Returns false on a rank-deficient channel, in which
  /// case the previous weights are no longer valid. Requires
  /// n_clients <= n_tx (no user selection on this path).
  [[nodiscard]] bool rebuild_kind(const ChannelMatrixSet& h,
                                  const PrecoderConfig& cfg,
                                  PinvScratch& scratch,
                                  const obs::ObsSink* obs = nullptr);

  /// Deterministic greedy user selection (semi-orthogonal style): seed
  /// with the strongest wideband user signature, then repeatedly add the
  /// user with the largest channel component orthogonal to the span of
  /// those already picked. Ties break to the lower client index; users
  /// whose residual is numerically inside the span are skipped. Returns
  /// at most max_streams client indices in ascending order.
  [[nodiscard]] static std::vector<std::size_t> greedy_select(
      const ChannelMatrixSet& h, std::size_t max_streams);

  /// Which weight rule built the current weights.
  [[nodiscard]] phy::PrecoderKind kind() const { return kind_; }

  /// Client indices serving the current streams when build_kind() had to
  /// down-select (K > n_tx); empty means every client is served in order.
  [[nodiscard]] std::span<const std::size_t> selected_users() const {
    return selected_;
  }

  /// W for one used subcarrier (n_tx x n_streams), scale included.
  [[nodiscard]] const CMatrix& weights(std::size_t used_idx) const {
    return w_[used_idx];
  }

  /// Packed SoA view of the scaled weights for one (AP antenna, stream)
  /// pair: element k is weights(k)(a, j), contiguous across all used
  /// subcarriers. This is the layout the subcarrier-batched SIMD
  /// synthesis and link-gain kernels consume — same values as weights(),
  /// just transposed into cache-line-aligned runs, and the runs are
  /// themselves contiguous in (a, j) order.
  [[nodiscard]] std::span<const cplx> weight_row(std::size_t a,
                                                 std::size_t j) const {
    const std::size_t n_sc = w_.size();
    return {packed_.data() + (a * n_streams() + j) * n_sc, n_sc};
  }

  /// The common effective gain: clients receive scale * x (per subcarrier).
  [[nodiscard]] double scale() const { return scale_; }

  /// Predicted post-beamforming SNR (linear) at every client for a given
  /// noise power — scale^2 / noise, identical across clients by design
  /// ("each client in a MegaMIMO joint transmission gets the same rate").
  /// Exact for kZf; for kRzf/kConj the residual leakage makes this the
  /// interference-free upper bound.
  [[nodiscard]] double predicted_snr(double noise_power) const {
    return scale_ * scale_ / noise_power;
  }

  /// Per-subcarrier transmit vector for stream symbols x (one per client),
  /// into a caller-owned span of exactly n_tx() entries.
  void transmit_vector_into(std::size_t used_idx, std::span<const cplx> x,
                            std::span<cplx> out) const {
    multiply_into(w_[used_idx], x, out);
  }

  [[nodiscard]] std::size_t n_tx() const {
    return w_.empty() ? 0 : w_[0].rows();
  }
  [[nodiscard]] std::size_t n_streams() const {
    return w_.empty() ? 0 : w_[0].cols();
  }
  [[nodiscard]] std::size_t n_subcarriers() const { return w_.size(); }

 private:
  /// Shared reduce/expand masked build for any kind.
  [[nodiscard]] static std::optional<Precoder> build_masked_impl(
      const ChannelMatrixSet& h, const PrecoderConfig& cfg,
      std::span<const std::uint8_t> active_tx, Workspace& ws,
      const obs::ObsSink* obs);

  /// Multiply every weight by scale_ (as `w *= cplx{scale_, 0}` does) and
  /// fill packed_ from the result in the same pass.
  void scale_and_pack();

  std::vector<CMatrix> w_;
  simd::acvec packed_;  ///< SoA copy behind weight_row()
  std::vector<std::size_t> selected_;
  double scale_ = 0.0;
  phy::PrecoderKind kind_ = phy::PrecoderKind::kZf;
};

/// Reduced channel set keeping only the given client rows (ascending
/// caller-chosen order) — the companion of Precoder::greedy_select.
[[nodiscard]] ChannelMatrixSet client_subset(
    const ChannelMatrixSet& h, std::span<const std::size_t> users);

/// Distributed MRT weights for a single client: w_k[i] =
/// conj(h_k[i]) / max_i(rms |h[i]|), normalized so each AP antenna
/// respects the per-antenna budget while transmitting at full gain.
class MrtPrecoder {
 public:
  /// h: one row of channels, h[used_idx][tx antenna].
  [[nodiscard]] static MrtPrecoder build(const std::vector<cvec>& h_per_sc,
                                         double per_antenna_power = 1.0);

  [[nodiscard]] const cvec& weights(std::size_t used_idx) const {
    return w_[used_idx];
  }

 private:
  std::vector<cvec> w_;
};

}  // namespace jmb::core
