#include "core/compat11n.h"

#include <cmath>
#include <stdexcept>

#include "linalg/lu.h"
#include "linalg/pinv.h"
#include "phy/params.h"

namespace jmb::core {

rvec rx_zf_stream_snrs(const CMatrix& h, double power, double noise_power) {
  // Stream j's post-ZF noise enhancement is [(H^H H)^{-1}]_jj.
  const CMatrix gram = h.hermitian() * h;
  const auto inv = inverse(gram);
  if (!inv) return rvec(h.cols(), 0.0);  // rank-deficient: streams unusable
  rvec out(h.cols());
  for (std::size_t j = 0; j < h.cols(); ++j) {
    const double enh = std::max((*inv)(j, j).real(), 1e-15);
    out[j] = power / (enh * noise_power);
  }
  return out;
}

namespace {

// The Section 11.5 testbed: two 2-antenna APs (AP 0 is the lead) jointly
// serving two 2-antenna 802.11n clients.
constexpr std::size_t kAps = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kAntsPerNode = 2;

constexpr double kSoundingIntervalS = 2e-3;  ///< spacing between soundings
constexpr double kMeasureSnrDb = 35.0;       ///< per-sounding estimation SNR
constexpr double kPpmRange = 2.0;  ///< oscillator spread (APs and clients)
constexpr double kPhaseNoiseLinewidthHz = 0.1;
/// Residual per-slave phase error of the sync-header correction at
/// transmit time (calibrated from the sample-level Fig. 7 result).
constexpr double kTxPhaseErrSigma = kCalibratedPhaseSigma;
/// Rician K of each link (ceiling APs in a conference room are LOS-ish;
/// keeps the 4x4 joint channel well conditioned, as the paper observes).
constexpr double kRiceK = 5.0;

/// Scalar per-node oscillator: deterministic CFO plus Wiener phase noise.
struct NodeOsc {
  double cfo_hz = 0.0;
  chan::Oscillator osc;

  NodeOsc(double ppm, std::uint64_t seed)
      : cfo_hz(ppm * 1e-6 * phy::kCarrierHz),
        osc({.ppm = 0.0,  // CFO handled here; osc supplies phase noise only
             .phase_noise_linewidth_hz = kPhaseNoiseLinewidthHz,
             .seed = seed}) {}

  [[nodiscard]] double phase_at(double t) const {
    return kTwoPi * cfo_hz * t +
           osc.phase_noise_at(static_cast<std::uint64_t>(
               std::max(0.0, t * phy::kSampleRateHz)));
  }
};

}  // namespace

Compat11nResult run_compat11n(const Compat11nParams& p, Rng& rng) {
  constexpr std::size_t n_tx = kAps * kAntsPerNode;
  constexpr std::size_t n_rx = kClients * kAntsPerNode;
  if (!(std::isfinite(p.link_gain) && p.link_gain > 0.0)) {
    throw std::invalid_argument("run_compat11n: link_gain must be finite, > 0");
  }
  if (!std::isfinite(p.effective_snr_db)) {
    throw std::invalid_argument(
        "run_compat11n: effective_snr_db must be finite");
  }

  // True channels (time-invariant within the experiment) with link gain.
  const ChannelMatrixSet h_true = random_channel_set_with_gains(
      std::vector<std::vector<double>>(n_rx,
                                       std::vector<double>(n_tx, p.link_gain)),
      rng, 52, kRiceK);
  const std::size_t n_sc = h_true.n_subcarriers();

  // One oscillator per AP (both antennas share it) and per client.
  std::vector<NodeOsc> ap_osc, cl_osc;
  for (std::size_t a = 0; a < kAps; ++a) {
    ap_osc.emplace_back(rng.uniform(-kPpmRange, kPpmRange), rng.next_u64());
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    cl_osc.emplace_back(rng.uniform(-kPpmRange, kPpmRange), rng.next_u64());
  }
  const auto ap_of_ant = [](std::size_t tx) { return tx / kAntsPerNode; };
  const auto client_of_rx = [](std::size_t r) { return r / kAntsPerNode; };

  const double est_nvar = p.link_gain / from_db(kMeasureSnrDb);

  // CSI a stock client reports for tx antenna `a` sounded at time t:
  // the true channel rotated by the pair's oscillator offset, plus noise.
  const auto sound_entry = [&](std::size_t r, std::size_t a, std::size_t k,
                               double t) {
    const double phi = ap_osc[ap_of_ant(a)].phase_at(t) -
                       cl_osc[client_of_rx(r)].phase_at(t);
    return h_true.at(k)(r, a) * phasor(phi) + rng.cgaussian(est_nvar);
  };
  // The slave's own measurement of the lead channel (sync header) at t,
  // reduced to the unit rotation it implies relative to phase 0 truth.
  const auto slave_lead_rotation = [&](std::size_t ap, double t) {
    const double phi = ap_osc[0].phase_at(t) - ap_osc[ap].phase_at(t);
    // A real slave averages 52 subcarriers of a strong AP-AP link; model
    // the residual as a small phase jitter.
    const double jitter = rng.gaussian(0.005);
    return phasor(phi + jitter);
  };

  // ---- Sounding schedule: t0 sounds (ant0 = L1, ant1 = L2); sounding s
  // (s >= 1) sounds (L1, antenna s+1).
  const std::size_t n_soundings = n_tx - 1;
  std::vector<double> t_of(n_soundings);
  for (std::size_t s = 0; s < n_soundings; ++s) {
    t_of[s] = 1e-3 + static_cast<double>(s) * kSoundingIntervalS;
  }
  const double t0 = t_of[0];

  // Measurements: per sounding, per rx antenna, per subcarrier, the two
  // sounded columns; plus the slave's lead-rotation at each sounding time.
  // Reconstruct directly.
  std::vector<CMatrix> h_hat(n_sc, CMatrix(n_rx, n_tx));
  std::vector<CMatrix> h_naive(n_sc, CMatrix(n_rx, n_tx));

  // Reference-antenna (L1) measurements at t0 per (rx, subcarrier), reused
  // for every later ratio.
  std::vector<std::vector<cplx>> l1_at_t0(n_rx, std::vector<cplx>(n_sc));
  for (std::size_t r = 0; r < n_rx; ++r) {
    for (std::size_t k = 0; k < n_sc; ++k) {
      l1_at_t0[r][k] = sound_entry(r, 0, k, t0);
      h_hat[k](r, 0) = l1_at_t0[r][k];
      h_naive[k](r, 0) = l1_at_t0[r][k];
      const cplx l2 = sound_entry(r, 1, k, t0);
      h_hat[k](r, 1) = l2;
      h_naive[k](r, 1) = l2;
    }
  }
  for (std::size_t s = 1; s < n_soundings; ++s) {
    const std::size_t ant = s + 1;
    const std::size_t ap = ap_of_ant(ant);
    const double ts = t_of[s];
    // Slave-side accumulated lead rotation between t0 and ts.
    const cplx rho_s =
        slave_lead_rotation(ap, ts) * std::conj(slave_lead_rotation(ap, t0));
    for (std::size_t r = 0; r < n_rx; ++r) {
      // Client-side accumulated lead rotation from the repeated L1 column,
      // averaged over subcarriers for robustness.
      cplx rho_r_acc{};
      std::vector<cplx> meas(n_sc);
      for (std::size_t k = 0; k < n_sc; ++k) {
        const cplx l1_now = sound_entry(r, 0, k, ts);
        rho_r_acc += l1_now * std::conj(l1_at_t0[r][k]);
        meas[k] = sound_entry(r, ant, k, ts);
      }
      const double mag = std::abs(rho_r_acc);
      const cplx rho_r = mag > 1e-15 ? rho_r_acc / mag : cplx{1.0, 0.0};
      // Rotate the slave antenna's measurement back to t0:
      // accumulated (S - R) phase = (L - R) - (L - S) = rho_r / rho_s.
      const cplx corr = std::conj(rho_r) * rho_s;
      for (std::size_t k = 0; k < n_sc; ++k) {
        h_hat[k](r, ant) = meas[k] * corr;
        h_naive[k](r, ant) = meas[k];  // no correction: stale phases
      }
    }
  }

  // ---- Reconstruction error vs the oracle H(t0) (rows have a free
  // client-common phase; align each row by its L1 entry before comparing).
  Compat11nResult result;
  const auto rel_err = [&](const std::vector<CMatrix>& est) {
    double num = 0.0, den = 0.0;
    for (std::size_t k = 0; k < n_sc; ++k) {
      for (std::size_t r = 0; r < n_rx; ++r) {
        // Oracle row at t0, with the same row-common rotation as the
        // estimate (anchored on the L1 entry).
        for (std::size_t a = 0; a < n_tx; ++a) {
          const double phi = ap_osc[ap_of_ant(a)].phase_at(t0) -
                             cl_osc[client_of_rx(r)].phase_at(t0);
          const cplx truth = h_true.at(k)(r, a) * phasor(phi);
          num += std::norm(est[k](r, a) - truth);
          den += std::norm(truth);
        }
      }
    }
    return std::sqrt(num / den);
  };
  result.reconstruction_rel_err = rel_err(h_hat);
  result.naive_rel_err = rel_err(h_naive);

  // ---- Joint transmission: ZF from h_hat. The true channel has rotated
  // by transmit time; the slaves' sync-header correction undoes that up to
  // a residual of kTxPhaseErrSigma (one error per slave AP, shared by
  // its antennas).
  ChannelMatrixSet h_for_zf(n_rx, n_tx);
  for (std::size_t k = 0; k < n_sc; ++k) h_for_zf.at(k) = h_hat[k];
  const auto precoder = Precoder::build(h_for_zf);
  result.jmb_stream_sinr.assign(n_rx, rvec(n_sc, 0.0));
  // Unit noise when ZF fails; the baseline's normalization below is
  // relative, so only its shape depends on this floor.
  double noise = 1.0;
  if (precoder) {
    noise = precoder->scale() * precoder->scale() / from_db(p.effective_snr_db);
    rvec slave_err(kAps, 0.0);
    for (std::size_t a = 1; a < kAps; ++a) {
      slave_err[a] = rng.gaussian(kTxPhaseErrSigma);
    }
    CMatrix h_now, g;
    for (std::size_t k = 0; k < n_sc; ++k) {
      h_now.resize(n_rx, n_tx);
      for (std::size_t r = 0; r < n_rx; ++r) {
        for (std::size_t a = 0; a < n_tx; ++a) {
          const std::size_t ap = ap_of_ant(a);
          // After the slave's sync-header correction, the channel matches
          // the t0 snapshot up to the residual error (and a row-common
          // client rotation, which receive processing absorbs).
          const double phi = ap_osc[ap].phase_at(t0) -
                             cl_osc[client_of_rx(r)].phase_at(t0) +
                             slave_err[ap];
          h_now(r, a) = h_true.at(k)(r, a) * phasor(phi);
        }
      }
      multiply_into(h_now, precoder->weights(k), g);
      for (std::size_t r = 0; r < n_rx; ++r) {
        const double sig = std::norm(g(r, r));
        double interf = 0.0;
        for (std::size_t j = 0; j < n_rx; ++j) {
          if (j != r) interf += std::norm(g(r, j));
        }
        result.jmb_stream_sinr[r][k] = sig / (interf + noise);
      }
    }
  }

  // ---- 802.11n baseline: each client receives 2 streams from the lead
  // AP alone, receiver-side ZF. Like the JMB side, the operating point is
  // pinned to the band (the paper places clients by SNR; both systems see
  // the same placements), so normalize each client's mean stream SNR to
  // the effective target while keeping the per-stream/subcarrier shape.
  result.baseline_stream_snr.assign(n_rx, rvec(n_sc, 0.0));
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t k = 0; k < n_sc; ++k) {
      CMatrix h2(kAntsPerNode, kAntsPerNode);
      for (std::size_t i = 0; i < kAntsPerNode; ++i) {
        for (std::size_t j = 0; j < kAntsPerNode; ++j) {
          h2(i, j) = h_true.at(k)(c * kAntsPerNode + i, j);
        }
      }
      const rvec snrs = rx_zf_stream_snrs(h2, 1.0, noise);
      for (std::size_t j = 0; j < kAntsPerNode; ++j) {
        result.baseline_stream_snr[c * kAntsPerNode + j][k] = snrs[j];
      }
    }
    // Harmonic mean: rx-ZF noise-enhancement valleys dominate the coded
    // error rate, so anchoring the harmonic mean to the target tracks the
    // effective-SNR placement far better than the arithmetic mean.
    double inv_acc = 0.0;
    for (std::size_t j = 0; j < kAntsPerNode; ++j) {
      for (double v : result.baseline_stream_snr[c * kAntsPerNode + j]) {
        inv_acc += 1.0 / std::max(v, 1e-12);
      }
    }
    const double hmean = static_cast<double>(kAntsPerNode * n_sc) / inv_acc;
    const double fix = from_db(p.effective_snr_db) / std::max(hmean, 1e-12);
    for (std::size_t j = 0; j < kAntsPerNode; ++j) {
      for (double& v : result.baseline_stream_snr[c * kAntsPerNode + j]) {
        v *= fix;
      }
    }
  }
  return result;
}

}  // namespace jmb::core
