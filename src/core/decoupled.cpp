#include "core/decoupled.h"

#include <cmath>
#include <stdexcept>

namespace jmb::core {

namespace {

struct NodeOsc {
  double cfo_hz = 0.0;
  chan::Oscillator osc;

  NodeOsc(double ppm, double carrier_hz, double linewidth, std::uint64_t seed)
      : cfo_hz(ppm * 1e-6 * carrier_hz),
        osc({.ppm = 0.0,
             .carrier_hz = carrier_hz,
             .sample_rate_hz = 10e6,
             .phase_noise_linewidth_hz = linewidth,
             .seed = seed}) {}

  [[nodiscard]] double phase_at(double t) const {
    return kTwoPi * cfo_hz * t +
           osc.phase_noise_at(
               static_cast<std::uint64_t>(std::max(0.0, t * 10e6)));
  }
};

rvec mean_sinr_db(const ChannelMatrixSet& h_snapshot,
                  const std::vector<CMatrix>& h_eff, double noise_power) {
  const auto precoder = Precoder::build(h_snapshot);
  const std::size_t nc = h_snapshot.n_clients();
  rvec out(nc, -100.0);
  if (!precoder) return out;
  rvec acc(nc, 0.0);
  CMatrix g;
  for (std::size_t k = 0; k < h_snapshot.n_subcarriers(); ++k) {
    multiply_into(h_eff[k], precoder->weights(k), g);
    for (std::size_t c = 0; c < nc; ++c) {
      const double sig = std::norm(g(c, c));
      double interf = 0.0;
      for (std::size_t j = 0; j < nc; ++j) {
        if (j != c) interf += std::norm(g(c, j));
      }
      acc[c] += sig / (interf + noise_power);
    }
  }
  for (std::size_t c = 0; c < nc; ++c) {
    out[c] = to_db(acc[c] / static_cast<double>(h_snapshot.n_subcarriers()));
  }
  return out;
}

}  // namespace

DecoupledResult run_decoupled(const DecoupledParams& p, Rng& rng) {
  const std::size_t n = p.n_nodes;
  if (n < 2) throw std::invalid_argument("run_decoupled: need >= 2 nodes");
  if (!(std::isfinite(p.link_gain) && p.link_gain > 0.0)) {
    throw std::invalid_argument("run_decoupled: link_gain must be finite, > 0");
  }
  if (!std::isfinite(p.measure_snr_db)) {
    throw std::invalid_argument("run_decoupled: measure_snr_db must be finite");
  }
  if (!(std::isfinite(p.measurement_spacing_s) &&
        p.measurement_spacing_s >= 0.0)) {
    throw std::invalid_argument(
        "run_decoupled: measurement_spacing_s must be finite, >= 0");
  }

  const ChannelMatrixSet h_true = random_channel_set_with_gains(
      std::vector<std::vector<double>>(n, std::vector<double>(n, p.link_gain)),
      rng);
  const std::size_t n_sc = h_true.n_subcarriers();

  std::vector<NodeOsc> ap_osc, cl_osc;
  for (std::size_t i = 0; i < n; ++i) {
    ap_osc.emplace_back(rng.uniform(-p.ppm_range, p.ppm_range), p.carrier_hz,
                        p.phase_noise_linewidth_hz, rng.next_u64());
    cl_osc.emplace_back(rng.uniform(-p.ppm_range, p.ppm_range), p.carrier_hz,
                        p.phase_noise_linewidth_hz, rng.next_u64());
  }
  const double est_nvar = p.link_gain / from_db(p.measure_snr_db);

  // Client c's interleaved measurement of AP a at time t_c.
  const auto measure = [&](std::size_t c, std::size_t a, std::size_t k,
                           double t) {
    const double phi = ap_osc[a].phase_at(t) - cl_osc[c].phase_at(t);
    return h_true.at(k)(c, a) * phasor(phi) + rng.cgaussian(est_nvar);
  };
  // Slave a's measured lead rotation accumulated between two times.
  const auto slave_rotation = [&](std::size_t a, double from, double to) {
    const double phi = (ap_osc[0].phase_at(to) - ap_osc[a].phase_at(to)) -
                       (ap_osc[0].phase_at(from) - ap_osc[a].phase_at(from));
    return phasor(phi + rng.gaussian(0.005));
  };

  // Measurement times: client c at t_c.
  std::vector<double> t_of(n);
  for (std::size_t c = 0; c < n; ++c) {
    t_of[c] = 1e-3 + static_cast<double>(c) * p.measurement_spacing_s;
  }
  const double t1 = t_of[0];

  // Composite H-bar (Appendix A): entry (c, a) = m_ca * rho_a(t1 -> t_c);
  // naive variant omits the rho correction.
  ChannelMatrixSet h_bar(n, n), h_naive(n, n), h_oracle(n, n);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t a = 0; a < n; ++a) {
      const cplx rho = (a == 0) ? cplx{1.0, 0.0}
                                : slave_rotation(a, t1, t_of[c]);
      for (std::size_t k = 0; k < n_sc; ++k) {
        const cplx m = measure(c, a, k, t_of[c]);
        h_bar.at(k)(c, a) = m * rho;
        h_naive.at(k)(c, a) = m;
        h_oracle.at(k)(c, a) = measure(c, a, k, t1);
      }
    }
  }

  // Effective channel at transmit time: slaves apply their sync-header
  // correction relative to t1 (with residual error); the row-common
  // client rotation is absorbed by receive processing, so it is omitted.
  rvec slave_err(n, 0.0);
  for (std::size_t a = 1; a < n; ++a) {
    slave_err[a] = rng.gaussian(p.tx_phase_err_sigma);
  }
  std::vector<CMatrix> h_eff(n_sc, CMatrix(n, n));
  for (std::size_t k = 0; k < n_sc; ++k) {
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t a = 0; a < n; ++a) {
        const double phi = (ap_osc[a].phase_at(t1) - ap_osc[0].phase_at(t1)) +
                           slave_err[a];
        h_eff[k](c, a) = h_true.at(k)(c, a) * phasor(phi);
      }
    }
  }
  // The oracle snapshot carries the same t1 reference but also each
  // client's t1 rotation; align h_eff rows for a fair oracle comparison.
  std::vector<CMatrix> h_eff_oracle(n_sc, CMatrix(n, n));
  for (std::size_t k = 0; k < n_sc; ++k) {
    for (std::size_t c = 0; c < n; ++c) {
      const double row_phi = -cl_osc[c].phase_at(t1) + ap_osc[0].phase_at(t1);
      for (std::size_t a = 0; a < n; ++a) {
        h_eff_oracle[k](c, a) = h_eff[k](c, a) * phasor(row_phi);
      }
    }
  }

  // Calibrate the noise floor to the oracle system's achieved scale so the
  // operating point matches the requested effective SNR.
  double noise = p.noise_power;
  if (p.effective_snr_db > 0.0) {
    if (const auto pre = Precoder::build(h_oracle)) {
      noise = pre->scale() * pre->scale() / from_db(p.effective_snr_db);
    }
  }

  DecoupledResult out;
  out.sinr_db = mean_sinr_db(h_bar, h_eff_oracle, noise);
  out.naive_sinr_db = mean_sinr_db(h_naive, h_eff_oracle, noise);
  out.oracle_sinr_db = mean_sinr_db(h_oracle, h_eff_oracle, noise);
  return out;
}

}  // namespace jmb::core
