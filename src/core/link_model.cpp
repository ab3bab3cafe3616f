#include "core/link_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "simd/kernels.h"

namespace jmb::core {

ChannelMatrixSet random_channel_set(std::size_t n_clients, std::size_t n_tx,
                                    Rng& rng, std::size_t n_subcarriers) {
  return random_channel_set_with_gains(
      std::vector<std::vector<double>>(n_clients,
                                       std::vector<double>(n_tx, 1.0)),
      rng, n_subcarriers);
}

ChannelMatrixSet random_channel_set_with_gains(
    const std::vector<std::vector<double>>& gains, Rng& rng,
    std::size_t n_subcarriers, double rice_k) {
  const std::size_t n_clients = gains.size();
  if (n_clients == 0 || gains[0].empty()) {
    throw std::invalid_argument("random_channel_set: empty gain matrix");
  }
  const std::size_t n_tx = gains[0].size();
  if (n_subcarriers != used_subcarriers().size()) {
    // ChannelMatrixSet is sized by the OFDM layout; other sizes are only
    // used by scalar experiments and map onto the first n entries.
    if (n_subcarriers > used_subcarriers().size()) {
      throw std::invalid_argument("random_channel_set: too many subcarriers");
    }
  }
  ChannelMatrixSet h(n_clients, n_tx);
  // The second tap's phasor per subcarrier, shared by every link.
  const auto& used = used_subcarriers();
  cvec tilt(h.n_subcarriers());
  for (std::size_t k = 0; k < tilt.size(); ++k) {
    tilt[k] = phasor(-kTwoPi * static_cast<double>(used[k]) / 64.0);
  }
  // Draw one flat response per link (block-fading across the band keeps
  // Fig. 6's "random channel matrix" semantics), with light frequency
  // selectivity from a second tap.
  for (std::size_t c = 0; c < n_clients; ++c) {
    if (gains[c].size() != n_tx) {
      throw std::invalid_argument("random_channel_set: ragged gains");
    }
    for (std::size_t a = 0; a < n_tx; ++a) {
      // Rician split on the dominant tap: |los|^2 = K/(K+1) of its power.
      const double p0 = 0.8 * gains[c][a];
      const cplx los = phasor(rng.uniform_phase()) *
                       std::sqrt(p0 * rice_k / (rice_k + 1.0));
      const cplx tap0 = los + rng.cgaussian(p0 / (rice_k + 1.0));
      const cplx tap1 = rng.cgaussian(0.2 * gains[c][a]);
      for (std::size_t k = 0; k < tilt.size(); ++k) {
        h.at(k)(c, a) = tap0 + tap1 * tilt[k];
      }
    }
  }
  return h;
}

ChannelMatrixSet well_conditioned_channel_set(
    const std::vector<std::vector<double>>& gains, Rng& rng) {
  const std::size_t nc = gains.size();
  if (nc == 0 || gains[0].empty()) {
    throw std::invalid_argument("well_conditioned_channel_set: empty gains");
  }
  const std::size_t nt = gains[0].size();
  if (nt < nc) {
    throw std::invalid_argument(
        "well_conditioned_channel_set: need n_tx >= n_clients");
  }
  ChannelMatrixSet h = random_channel_set_with_gains(
      std::vector<std::vector<double>>(nc, std::vector<double>(nt, 1.0)), rng);
  // Row power anchored to the client's best link: joint beamforming
  // delivers "the same rate ... similar to traditional 802.11" per client
  // (Section 9), not an aggregated-power bonus.
  rvec target(nc, 0.0);
  for (std::size_t c = 0; c < nc; ++c) {
    for (std::size_t a = 0; a < nt && a < gains[c].size(); ++a) {
      target[c] = std::max(target[c], gains[c][a]);
    }
  }
  const auto scale_row = [nt](cplx* row, double power) {
    double norm2 = 0.0;
    for (std::size_t a = 0; a < nt; ++a) norm2 += std::norm(row[a]);
    const double s = norm2 > 1e-30 ? std::sqrt(power / norm2) : 0.0;
    for (std::size_t a = 0; a < nt; ++a) row[a] *= s;
  };
  for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
    CMatrix& m = h.at(k);
    // Gram-Schmidt on client rows, in place. Every row but the last is
    // left at unit power for the later projections (scaled to its target,
    // then by 1/sqrt(target)).
    for (std::size_t c = 0; c < nc; ++c) {
      cplx* const row = &m(c, 0);
      for (std::size_t p = 0; p < c; ++p) {
        const cplx* const prev = &m(p, 0);
        cplx proj{};
        for (std::size_t a = 0; a < nt; ++a) {
          proj += std::conj(prev[a]) * row[a];
        }
        for (std::size_t a = 0; a < nt; ++a) row[a] -= proj * prev[a];
      }
      scale_row(row, target[c]);
      if (c + 1 < nc) {
        const double inv =
            std::sqrt(target[c]) > 1e-30 ? 1.0 / std::sqrt(target[c]) : 0.0;
        for (std::size_t a = 0; a < nt; ++a) row[a] *= inv;
      }
    }
    // Second pass: restore the target row powers.
    for (std::size_t c = 0; c < nc; ++c) scale_row(&m(c, 0), target[c]);
  }
  return h;
}

SinrReport beamforming_sinr(const ChannelMatrixSet& h, const rvec& phase_err,
                            double noise_power) {
  const auto precoder = Precoder::build(h);
  if (!precoder) {
    throw std::invalid_argument("beamforming_sinr: singular channel");
  }
  return beamforming_sinr(h, *precoder, phase_err, noise_power);
}

SinrReport beamforming_sinr(const ChannelMatrixSet& h,
                            const Precoder& precoder, const rvec& phase_err,
                            double noise_power) {
  if (phase_err.size() != h.n_tx()) {
    throw std::invalid_argument("beamforming_sinr: phase_err size != n_tx");
  }
  if (precoder.n_subcarriers() != h.n_subcarriers()) {
    throw std::invalid_argument(
        "beamforming_sinr: precoder n_subcarriers != channel n_subcarriers");
  }
  if (precoder.n_tx() != h.n_tx()) {
    throw std::invalid_argument(
        "beamforming_sinr: precoder n_tx != channel n_tx");
  }
  if (precoder.n_streams() != h.n_clients()) {
    throw std::invalid_argument(
        "beamforming_sinr: precoder n_streams != channel n_clients");
  }
  const std::size_t nc = h.n_clients();
  const std::size_t nt = h.n_tx();
  const std::size_t n_sc = h.n_subcarriers();

  SinrReport rep;
  rep.sinr.assign(nc, 0.0);
  rep.snr_no_interference.assign(nc, 0.0);
  rep.sinr_per_subcarrier.assign(nc, rvec(n_sc, 0.0));

  // Row c of G = H diag(e^{j phi}) W on every subcarrier at once: row c
  // of H packed into one run per AP across subcarriers, W read in place
  // from the precoder's weight rows (the same layout). `scratch` holds
  // the nt phasors, then the packed row.
  cvec scratch(nt + nt * n_sc);
  cplx* const rot = scratch.data();
  cplx* const row = rot + nt;
  for (std::size_t a = 0; a < nt; ++a) rot[a] = phasor(phase_err[a]);
  rvec interf(n_sc);
  const simd::Kernels& kern = simd::active_kernels();
  const double inv = 1.0 / static_cast<double>(n_sc);
  for (std::size_t c = 0; c < nc; ++c) {
    for (std::size_t k = 0; k < n_sc; ++k) {
      const CMatrix& hk = h.at(k);
      for (std::size_t a = 0; a < nt; ++a) row[a * n_sc + k] = hk(c, a);
    }
    // |G(c, c)|^2 lands in the report's row and becomes the SINR in place.
    rvec& sinr = rep.sinr_per_subcarrier[c];
    kern.beam_gains(reinterpret_cast<const double*>(row),
                    reinterpret_cast<const double*>(rot),
                    reinterpret_cast<const double*>(
                        precoder.weight_row(0, 0).data()),
                    c, nc, nt, n_sc, sinr.data(), interf.data());
    for (std::size_t k = 0; k < n_sc; ++k) {
      const double sig = sinr[k];
      sinr[k] = sig / (interf[k] + noise_power);
      rep.sinr[c] += sinr[k];
      rep.snr_no_interference[c] += sig / noise_power;
    }
    rep.sinr[c] *= inv;
    rep.snr_no_interference[c] *= inv;
  }
  return rep;
}

double snr_reduction_db(std::size_t n_clients, std::size_t n_tx,
                        double misalignment_rad, double snr_db,
                        std::size_t trials, Rng& rng) {
  // Noise chosen so the aligned system sits at snr_db on average (the
  // paper's "system in which the average SNR is X dB").
  double acc_reduction = 0.0;
  std::size_t counted = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const ChannelMatrixSet h = random_channel_set(n_clients, n_tx, rng);
    rvec aligned(n_tx, 0.0);
    rvec misaligned(n_tx, 0.0);
    for (std::size_t a = 1; a < n_tx; ++a) misaligned[a] = misalignment_rad;

    const auto precoder = Precoder::build(h);
    if (!precoder) continue;
    const double noise =
        precoder->scale() * precoder->scale() / from_db(snr_db);

    const SinrReport base = beamforming_sinr(h, aligned, noise);
    const SinrReport err = beamforming_sinr(h, misaligned, noise);
    for (std::size_t c = 0; c < h.n_clients(); ++c) {
      acc_reduction += to_db(base.sinr[c]) - to_db(err.sinr[c]);
      ++counted;
    }
  }
  return counted ? acc_reduction / static_cast<double>(counted) : 0.0;
}

double expected_inr_db(const ChannelMatrixSet& h, double phase_err_sigma,
                       double noise_power, std::size_t trials, Rng& rng) {
  const auto precoder = Precoder::build(h);
  if (!precoder) {
    throw std::invalid_argument("expected_inr_db: singular channel");
  }
  // INR at client 0 when its stream is silent: leakage of the other
  // streams plus the noise floor, relative to the noise floor (the
  // quantity Fig. 8 plots).
  double acc = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    rvec phase(h.n_tx(), 0.0);
    for (std::size_t a = 1; a < h.n_tx(); ++a) {
      phase[a] = rng.gaussian(phase_err_sigma);
    }
    double leak = 0.0;
    for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
      CMatrix h_err = h.at(k);
      for (std::size_t c = 0; c < h.n_clients(); ++c) {
        for (std::size_t a = 0; a < h.n_tx(); ++a) {
          h_err(c, a) *= phasor(phase[a]);
        }
      }
      const CMatrix g = h_err * precoder->weights(k);
      for (std::size_t j = 1; j < h.n_clients(); ++j) {
        leak += std::norm(g(0, j));
      }
    }
    leak /= static_cast<double>(h.n_subcarriers());
    acc += (leak + noise_power) / noise_power;
  }
  return to_db(acc / static_cast<double>(trials));
}

std::vector<rvec> jmb_subcarrier_sinrs(const ChannelMatrixSet& h,
                                       const Precoder& precoder,
                                       double phase_err_sigma,
                                       double noise_power, Rng& rng) {
  rvec phase(h.n_tx(), 0.0);
  for (std::size_t a = 1; a < h.n_tx(); ++a) {
    phase[a] = rng.gaussian(phase_err_sigma);
  }
  SinrReport rep = beamforming_sinr(h, precoder, phase, noise_power);
  return std::move(rep.sinr_per_subcarrier);
}

SinrPool::SinrPool(const ChannelMatrixSet& h, const Precoder& precoder,
                   std::size_t size, Rng& rng,
                   std::span<const double> interference)
    : n_streams_(precoder.n_streams()) {
  if (size == 0 || n_streams_ == 0) {
    throw std::invalid_argument("SinrPool: empty pool or precoder");
  }
  entries_.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    auto sinrs = jmb_subcarrier_sinrs(h, precoder, kCalibratedPhaseSigma, 1.0,
                                      rng);
    if (!interference.empty()) {
      for (rvec& per_client : sinrs) {
        for (std::size_t k = 0; k < per_client.size(); ++k) {
          per_client[k] /= 1.0 + interference[k % interference.size()];
        }
      }
    }
    entries_.push_back(std::move(sinrs));
  }
}

const rvec& SinrPool::next(std::size_t client) {
  return at(draw_++, client);
}

const rvec& SinrPool::at(std::size_t draw, std::size_t client) const {
  return entries_[(offset_ + draw / n_streams_) % entries_.size()][client];
}

void SinrPoolSet::add(const ChannelMatrixSet& h,
                      const std::optional<Precoder>& precoder,
                      std::size_t size, Rng& rng,
                      std::span<const double> interference) {
  if (precoder) {
    slots_.emplace_back(std::in_place, h, *precoder, size, rng, interference);
  } else {
    slots_.emplace_back();
  }
}

const rvec& SinrPoolSet::next(std::size_t slot, std::size_t client) {
  const std::optional<SinrPool>& pool = slots_[slot];
  return pool ? pool->at(draw_++, client) : outage_;
}

MaskedSinrPool::MaskedSinrPool(const ChannelMatrixSet& h, Workspace& ws,
                               std::size_t size, Rng rng,
                               std::span<const double> interference)
    : h_(&h),
      ws_(&ws),
      size_(size),
      rng_(rng),
      interference_(interference.begin(), interference.end()) {}

const rvec& MaskedSinrPool::next(std::size_t client,
                                 std::span<const std::uint8_t> active_tx) {
  // A run sees a handful of masks: a linear scan comparing whole masks
  // is enough, and masks wider than any machine word stay distinct.
  const auto seen = std::find_if(
      masks_.begin(), masks_.end(),
      [&](const auto& mask) { return std::ranges::equal(mask, active_tx); });
  const auto slot = static_cast<std::size_t>(seen - masks_.begin());
  if (seen == masks_.end()) {
    masks_.emplace_back(active_tx.begin(), active_tx.end());
    pools_.add(*h_, Precoder::build_masked(*h_, active_tx, *ws_, 1.0), size_,
               rng_, interference_);
  }
  return pools_.next(slot, client);
}

rvec best_ap_snrs(std::span<const double> gains,
                  std::span<const std::uint8_t> up) {
  double best = 0.0;
  for (std::size_t a = 0; a < gains.size(); ++a) {
    if (up.empty() || (a < up.size() && up[a])) best = std::max(best, gains[a]);
  }
  return rvec(phy::kNumDataCarriers, best);
}

std::vector<rvec> baseline_subcarrier_snrs(const ChannelMatrixSet& h,
                                           double noise_power) {
  std::vector<rvec> out(h.n_clients(), rvec(h.n_subcarriers(), 0.0));
  for (std::size_t c = 0; c < h.n_clients(); ++c) {
    // Best AP by mean power across the band.
    std::size_t best = 0;
    double best_p = -1.0;
    for (std::size_t a = 0; a < h.n_tx(); ++a) {
      const double p = h.mean_link_power(c, a);
      if (p > best_p) {
        best_p = p;
        best = a;
      }
    }
    for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
      out[c][k] = std::norm(h.at(k)(c, best)) / noise_power;
    }
  }
  return out;
}

rvec diversity_subcarrier_snrs(const std::vector<cvec>& h_row,
                               double phase_err_sigma, double noise_power,
                               Rng& rng) {
  if (h_row.empty()) {
    throw std::invalid_argument("diversity_subcarrier_snrs: empty channel");
  }
  const std::size_t n_tx = h_row[0].size();
  rvec phase(n_tx, 0.0);
  for (std::size_t a = 1; a < n_tx; ++a) {
    phase[a] = rng.gaussian(phase_err_sigma);
  }

  rvec out(h_row.size(), 0.0);
  for (std::size_t k = 0; k < h_row.size(); ++k) {
    // MRT: every AP contributes |h| coherently (up to its phase error).
    cplx acc{};
    for (std::size_t a = 0; a < n_tx; ++a) {
      acc += std::abs(h_row[k][a]) * phasor(phase[a]);
    }
    out[k] = std::norm(acc) / noise_power;
  }
  return out;
}

}  // namespace jmb::core
