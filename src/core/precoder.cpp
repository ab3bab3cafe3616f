#include "core/precoder.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/pinv.h"
#include "obs/bounds.h"
#include "phy/workspace.h"
#include "simd/kernels.h"

namespace jmb::core {

namespace {

/// 2-norm condition of one (possibly wide) channel matrix: for wide
/// matrices condition over the nonzero singular values via the small Gram
/// matrix A A^H.
double channel_condition(const CMatrix& a) {
  if (a.rows() < a.cols()) {
    return std::sqrt(condition_number(a * a.hermitian()));
  }
  return condition_number(a);
}

/// Residual inter-client interference of the built precoder on one
/// subcarrier: off-diagonal power of H W relative to its diagonal, in dB.
/// Ideal zero forcing is -inf; floor at -320 dB (below double epsilon^2).
double zf_leakage_db(const CMatrix& h, const CMatrix& w) {
  const CMatrix e = h * w;  // n_clients x n_clients, ideally diag
  double diag = 0.0;
  double off = 0.0;
  for (std::size_t r = 0; r < e.rows(); ++r) {
    for (std::size_t c = 0; c < e.cols(); ++c) {
      const double p = std::norm(e(r, c));
      if (r == c) diag += p;
      else off += p;
    }
  }
  if (diag <= 0.0) return 0.0;
  const double ratio = off / diag;
  if (ratio < 1e-32) return -320.0;
  return 10.0 * std::log10(ratio);
}

/// w[k] = pinv_into(h.at(k), ridge) for every subcarrier, through the
/// subcarrier-batched simd::Kernels::zf_pinv, which runs pinv_into's
/// operation sequence with one lane per subcarrier: the same bits, and
/// false where the per-subcarrier loop would fail on a singular Gram
/// matrix.
bool batched_pinv(const ChannelMatrixSet& h, double ridge,
                  PinvScratch& scratch, std::vector<CMatrix>& w) {
  const std::size_t n_sc = h.n_subcarriers();
  scratch.batch_a.resize(n_sc);
  scratch.batch_w.resize(n_sc);
  for (std::size_t k = 0; k < n_sc; ++k) {
    w[k].resize(h.n_tx(), h.n_clients());
    scratch.batch_a[k] = reinterpret_cast<const double*>(&h.at(k)(0, 0));
    scratch.batch_w[k] = reinterpret_cast<double*>(&w[k](0, 0));
  }
  scratch.batch_work.resize(
      simd::zf_pinv_work_size(h.n_clients(), h.n_tx()));
  return simd::active_kernels().zf_pinv(
      scratch.batch_a.data(), h.n_clients(), h.n_tx(), n_sc, ridge,
      scratch.batch_w.data(), scratch.batch_work.data());
}

}  // namespace

std::optional<Precoder> Precoder::build(const ChannelMatrixSet& h,
                                        double per_antenna_power,
                                        const obs::ObsSink* obs) {
  PrecoderConfig cfg;
  cfg.per_antenna_power = per_antenna_power;
  PinvScratch scratch;
  Precoder p;
  if (!p.rebuild_kind(h, cfg, scratch, obs)) return std::nullopt;
  return p;
}

std::optional<Precoder> Precoder::build_kind(const ChannelMatrixSet& h,
                                             const PrecoderConfig& cfg,
                                             const obs::ObsSink* obs) {
  PinvScratch scratch;
  Precoder p;
  if (h.n_clients() > h.n_tx()) {
    // More users than streams: serve the greedy semi-orthogonal subset.
    std::vector<std::size_t> sel = greedy_select(h, h.n_tx());
    if (sel.size() < h.n_tx()) {
      // Could not find n_tx separable users; serve what we found.
      if (sel.empty()) return std::nullopt;
    }
    const ChannelMatrixSet sub = client_subset(h, sel);
    if (!p.rebuild_kind(sub, cfg, scratch, obs)) return std::nullopt;
    p.selected_ = std::move(sel);
    return p;
  }
  if (!p.rebuild_kind(h, cfg, scratch, obs)) return std::nullopt;
  return p;
}

std::optional<Precoder> Precoder::build_masked(
    const ChannelMatrixSet& h, std::span<const std::uint8_t> active_tx,
    Workspace& ws, double per_antenna_power, const obs::ObsSink* obs) {
  PrecoderConfig cfg;
  cfg.per_antenna_power = per_antenna_power;
  return build_masked_impl(h, cfg, active_tx, ws, obs);
}

std::optional<Precoder> Precoder::build_masked(
    const ChannelMatrixSet& h, const PrecoderConfig& cfg,
    std::span<const std::uint8_t> active_tx, Workspace& ws,
    const obs::ObsSink* obs) {
  return build_masked_impl(h, cfg, active_tx, ws, obs);
}

std::optional<Precoder> Precoder::build_masked_impl(
    const ChannelMatrixSet& h, const PrecoderConfig& cfg,
    std::span<const std::uint8_t> active_tx, Workspace& ws,
    const obs::ObsSink* obs) {
  if (active_tx.size() != h.n_tx()) {
    throw std::invalid_argument("Precoder::build_masked: mask size mismatch");
  }
  std::size_t n_active = 0;
  for (const std::uint8_t a : active_tx) n_active += (a != 0) ? 1 : 0;
  if (n_active == h.n_tx()) {
    // Full set active: take the ordinary path so results stay bitwise
    // identical to build() (no reduce/expand round trip).
    Precoder full;
    if (!full.rebuild_kind(h, cfg, ws.pinv, obs)) return std::nullopt;
    return full;
  }
  if (n_active < h.n_clients()) return std::nullopt;

  ChannelMatrixSet reduced(h.n_clients(), n_active);
  for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
    const CMatrix& full = h.at(k);
    CMatrix& r = reduced.at(k);
    for (std::size_t c = 0; c < h.n_clients(); ++c) {
      std::size_t j = 0;
      for (std::size_t i = 0; i < h.n_tx(); ++i) {
        if (active_tx[i] != 0) r(c, j++) = full(c, i);
      }
    }
  }
  Precoder small;
  if (!small.rebuild_kind(reduced, cfg, ws.pinv, obs)) return std::nullopt;

  // Re-expand to full n_tx rows: excluded APs transmit exactly zero, so
  // synthesis can keep indexing weights by absolute AP id.
  Precoder p;
  p.scale_ = small.scale_;
  p.kind_ = small.kind_;
  const std::size_t n_sc = h.n_subcarriers();
  const std::size_t ns = h.n_clients();
  p.w_.resize(n_sc);
  for (std::size_t k = 0; k < n_sc; ++k) {
    CMatrix& w = p.w_[k];
    w.resize(h.n_tx(), ns);
    std::size_t j = 0;
    for (std::size_t i = 0; i < h.n_tx(); ++i) {
      if (active_tx[i] == 0) continue;
      for (std::size_t c = 0; c < ns; ++c) w(i, c) = small.w_[k](j, c);
      ++j;
    }
  }
  // The packed rows expand the same way: an active antenna's runs are the
  // reduced build's, an excluded one's stay zero.
  p.packed_.assign(h.n_tx() * ns * n_sc, cplx{});
  std::size_t j = 0;
  for (std::size_t i = 0; i < h.n_tx(); ++i) {
    if (active_tx[i] == 0) continue;
    std::copy_n(small.packed_.data() + j * ns * n_sc, ns * n_sc,
                p.packed_.data() + i * ns * n_sc);
    ++j;
  }
  return p;
}

void Precoder::scale_and_pack() {
  const cplx s{scale_, 0.0};
  const std::size_t n_sc = w_.size();
  const std::size_t nt = n_tx();
  const std::size_t ns = n_streams();
  packed_.resize(nt * ns * n_sc);
  for (std::size_t k = 0; k < n_sc; ++k) {
    cplx* const w = &w_[k](0, 0);
    for (std::size_t e = 0; e < nt * ns; ++e) {
      w[e] *= s;
      packed_[e * n_sc + k] = w[e];
    }
  }
}

bool Precoder::rebuild_kind(const ChannelMatrixSet& h,
                            const PrecoderConfig& cfg, PinvScratch& scratch,
                            const obs::ObsSink* obs) {
  if (h.n_subcarriers() == 0 || h.n_clients() == 0 || h.n_tx() == 0) {
    throw std::invalid_argument("Precoder: empty channel set");
  }
  if (h.n_tx() < h.n_clients()) {
    throw std::invalid_argument(
        "Precoder: need at least as many AP antennas as clients");
  }
  kind_ = cfg.kind;
  selected_.clear();
  w_.resize(h.n_subcarriers());
  switch (cfg.kind) {
    case phy::PrecoderKind::kZf:
      if (!batched_pinv(h, 0.0, scratch, w_)) return false;
      break;
    case phy::PrecoderKind::kRzf:
      if (!batched_pinv(h, cfg.ridge, scratch, w_)) return false;
      break;
    case phy::PrecoderKind::kConj:
      for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
        hermitian_into(h.at(k), w_[k]);
      }
      break;
  }
  // One global scale: with unit-power stream symbols, AP antenna i spends
  // mean_k row_power(W_k, i) per subcarrier. Scale so the hungriest
  // antenna hits its budget exactly. Each antenna's sum runs over k in
  // order; one pass over the matrices keeps the n_tx sums in flight
  // together.
  std::vector<double>& power = scratch.batch_power;
  power.assign(h.n_tx(), 0.0);
  for (const CMatrix& w : w_) {
    for (std::size_t i = 0; i < h.n_tx(); ++i) power[i] += w.row_power(i);
  }
  double worst = 0.0;
  for (const double sum : power) {
    worst = std::max(worst, sum / static_cast<double>(w_.size()));
  }
  if (worst <= 0.0) return false;
  scale_ = std::sqrt(cfg.per_antenna_power / worst);
  scale_and_pack();

  if (obs) {
    // Probe a handful of strided subcarriers — cheap relative to the
    // batched pseudo-inverses above, and enough for the distributions.
    constexpr std::size_t kMaxProbes = 8;
    const std::size_t stride =
        std::max<std::size_t>(1, h.n_subcarriers() / kMaxProbes);
    const char* const leakage_metric = cfg.kind == phy::PrecoderKind::kZf
                                           ? "precoder/zf_leakage_db"
                                           : "precoder/leakage_db";
    for (std::size_t k = 0; k < h.n_subcarriers(); k += stride) {
      obs->observe("precoder/cond", obs::kCondBounds,
                   channel_condition(h.at(k)));
      obs->observe(leakage_metric, obs::kDbBounds,
                   zf_leakage_db(h.at(k), w_[k]));
    }
    obs->count("precoder/builds");
  }
  return true;
}

std::vector<std::size_t> Precoder::greedy_select(const ChannelMatrixSet& h,
                                                 std::size_t max_streams) {
  const std::size_t n_users = h.n_clients();
  const std::size_t want = std::min(max_streams, n_users);
  if (want == 0 || h.n_subcarriers() == 0) return {};

  // Wideband user signatures live in the concatenated space of a few
  // strided probe subcarriers' channel rows; all the norms and inner
  // products the greedy pass needs are captured by the K x K Gram matrix,
  // so the Gram-Schmidt runs in "kernel" form on G alone.
  constexpr std::size_t kMaxProbes = 8;
  const std::size_t stride =
      std::max<std::size_t>(1, h.n_subcarriers() / kMaxProbes);
  std::vector<cplx> gram(n_users * n_users);
  for (std::size_t k = 0; k < h.n_subcarriers(); k += stride) {
    const CMatrix& hk = h.at(k);
    for (std::size_t u = 0; u < n_users; ++u) {
      for (std::size_t v = 0; v < n_users; ++v) {
        gram[u * n_users + v] += row_hdot(hk, u, hk, v);
      }
    }
  }

  std::vector<double> resid(n_users);       // squared residual norms
  std::vector<cplx> coef(n_users * want);   // coef[u][i] = <q_i, g_u>
  std::vector<char> taken(n_users, 0);
  for (std::size_t u = 0; u < n_users; ++u) {
    resid[u] = gram[u * n_users + u].real();
  }

  std::vector<std::size_t> sel;
  sel.reserve(want);
  while (sel.size() < want) {
    // Strict > with ascending scan: ties break to the lower client index.
    std::size_t best = n_users;
    double best_r2 = 0.0;
    for (std::size_t u = 0; u < n_users; ++u) {
      if (taken[u] == 0 && resid[u] > best_r2) {
        best = u;
        best_r2 = resid[u];
      }
    }
    if (best == n_users) break;
    // Skip users numerically inside the selected span — a ZF solve on
    // them would be rank deficient anyway.
    if (best_r2 <= 1e-12 * gram[best * n_users + best].real()) break;
    const std::size_t step = sel.size();
    sel.push_back(best);
    taken[best] = 1;
    if (sel.size() == want) break;
    // New orthonormal direction q_step = resid(g_best) / |resid(g_best)|;
    // fold its coefficient into every user and shrink their residuals.
    const double rnorm = std::sqrt(best_r2);
    for (std::size_t u = 0; u < n_users; ++u) {
      cplx c = gram[best * n_users + u];
      for (std::size_t i = 0; i < step; ++i) {
        c -= std::conj(coef[best * want + i]) * coef[u * want + i];
      }
      c /= rnorm;
      coef[u * want + step] = c;
      resid[u] = std::max(0.0, resid[u] - std::norm(c));
    }
  }
  std::sort(sel.begin(), sel.end());
  return sel;
}

ChannelMatrixSet client_subset(const ChannelMatrixSet& h,
                               std::span<const std::size_t> users) {
  if (users.empty()) {
    throw std::invalid_argument("client_subset: empty selection");
  }
  ChannelMatrixSet sub(users.size(), h.n_tx());
  for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
    const CMatrix& full = h.at(k);
    CMatrix& r = sub.at(k);
    for (std::size_t c = 0; c < users.size(); ++c) {
      if (users[c] >= h.n_clients()) {
        throw std::invalid_argument("client_subset: user index out of range");
      }
      for (std::size_t i = 0; i < h.n_tx(); ++i) {
        r(c, i) = full(users[c], i);
      }
    }
  }
  return sub;
}

MrtPrecoder MrtPrecoder::build(const std::vector<cvec>& h_per_sc,
                               double per_antenna_power) {
  if (h_per_sc.empty() || h_per_sc[0].empty()) {
    throw std::invalid_argument("MrtPrecoder: empty channel");
  }
  const std::size_t n_tx = h_per_sc[0].size();
  // Each AP transmits conj(h_i)/|h_i| per subcarrier (paper Section 8:
  // h*_{1i}/||h_{1i}|| x_1) — full per-antenna power, phase-aligned at the
  // client. Guard the degenerate zero-channel case.
  MrtPrecoder p;
  p.w_.reserve(h_per_sc.size());
  const double amp = std::sqrt(per_antenna_power);
  for (const cvec& h : h_per_sc) {
    if (h.size() != n_tx) {
      throw std::invalid_argument("MrtPrecoder: ragged channel set");
    }
    cvec w(n_tx);
    for (std::size_t i = 0; i < n_tx; ++i) {
      const double mag = std::abs(h[i]);
      w[i] = (mag > 1e-15) ? std::conj(h[i]) / mag * amp : cplx{amp, 0.0};
    }
    p.w_.push_back(std::move(w));
  }
  return p;
}

}  // namespace jmb::core
