// Precoder zoo unit tests: greedy user selection, the regularized solve on
// ill-conditioned channels, bitwise ZF parity with the legacy build path
// and with the per-subcarrier pseudo-inverse on every SIMD backend, and the
// CSI impairment model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/link_model.h"
#include "core/precoder.h"
#include "core/types.h"
#include "dsp/rng.h"
#include "linalg/pinv.h"
#include "phy/precoding.h"
#include "phy/workspace.h"
#include "simd/backend.h"

namespace jmb {
namespace {

using core::ChannelMatrixSet;
using core::Precoder;
using core::PrecoderConfig;
using phy::CsiImpairment;
using phy::PrecoderKind;

bool same_weights(const Precoder& a, const Precoder& b) {
  if (a.n_tx() != b.n_tx() || a.n_streams() != b.n_streams()) return false;
  const double sa = a.scale();
  const double sb = b.scale();
  if (std::memcmp(&sa, &sb, sizeof(double)) != 0) return false;
  const std::size_t n_sc = ChannelMatrixSet(1, 1).n_subcarriers();
  for (std::size_t k = 0; k < n_sc; ++k) {
    const CMatrix& wa = a.weights(k);
    const CMatrix& wb = b.weights(k);
    for (std::size_t r = 0; r < wa.rows(); ++r) {
      for (std::size_t c = 0; c < wa.cols(); ++c) {
        if (std::memcmp(&wa(r, c), &wb(r, c), sizeof(cplx)) != 0) {
          return false;
        }
      }
    }
  }
  return true;
}

/// Spatially correlated (ill-conditioned) channel set: each client row is
/// the mix sqrt(1-corr) * own + sqrt(corr) * shared of the client's own
/// random draw and one common random row, preserving per-link mean power
/// gains[client][tx]. corr -> 1 drives every subcarrier's H toward rank
/// one, where plain zero forcing's power normalization and leakage
/// explode while regularized solves stay bounded.
ChannelMatrixSet correlated_channel_set(
    const std::vector<std::vector<double>>& gains, double corr, Rng& rng) {
  ChannelMatrixSet own = core::random_channel_set_with_gains(gains, rng);
  // One unit-power shared row; every client leans on it by sqrt(corr),
  // scaled to the client's own link gain so mean power is unchanged.
  const ChannelMatrixSet shared = core::random_channel_set(1, own.n_tx(), rng);
  const double w_own = std::sqrt(1.0 - corr);
  const double w_shared = std::sqrt(corr);
  for (std::size_t k = 0; k < own.n_subcarriers(); ++k) {
    CMatrix& m = own.at(k);
    const CMatrix& s = shared.at(k);
    for (std::size_t c = 0; c < own.n_clients(); ++c) {
      for (std::size_t a = 0; a < own.n_tx(); ++a) {
        m(c, a) = w_own * m(c, a) +
                  w_shared * std::sqrt(gains[c][a]) * s(0, a);
      }
    }
  }
  return own;
}

double mean_sinr(const ChannelMatrixSet& h, const Precoder& p,
                 double noise) {
  const rvec no_phase_err(h.n_tx(), 0.0);
  const core::SinrReport rep =
      core::beamforming_sinr(h, p, no_phase_err, noise);
  double acc = 0.0;
  for (const double s : rep.sinr) acc += s;
  return acc / static_cast<double>(rep.sinr.size());
}

// ---------------------------------------------------------------- greedy

TEST(GreedySelect, DeterministicAscendingAndBounded) {
  Rng rng(42);
  const ChannelMatrixSet h = core::random_channel_set(6, 4, rng);
  const std::vector<std::size_t> sel = Precoder::greedy_select(h, 4);
  ASSERT_EQ(sel.size(), 4u);
  for (std::size_t i = 1; i < sel.size(); ++i) {
    EXPECT_LT(sel[i - 1], sel[i]);  // strictly ascending
  }
  for (const std::size_t u : sel) EXPECT_LT(u, 6u);
  // Bit-for-bit repeatable: no hidden RNG or iteration-order dependence.
  EXPECT_EQ(sel, Precoder::greedy_select(h, 4));
}

TEST(GreedySelect, KeepsEveryoneWhenStreamsSuffice) {
  Rng rng(7);
  const ChannelMatrixSet h = core::random_channel_set(3, 4, rng);
  const std::vector<std::size_t> sel = Precoder::greedy_select(h, 4);
  EXPECT_EQ(sel, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(GreedySelect, SkipsDuplicateRowPreferringLowerIndex) {
  // Client 2 is an exact copy of client 0: its residual against the span
  // of client 0 is numerically zero, so it must never be picked while a
  // linearly independent user remains.
  Rng rng(9);
  ChannelMatrixSet h = core::random_channel_set(4, 2, rng);
  for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
    for (std::size_t a = 0; a < h.n_tx(); ++a) {
      h.at(k)(2, a) = h.at(k)(0, a);
    }
  }
  const std::vector<std::size_t> sel = Precoder::greedy_select(h, 2);
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_TRUE(sel[0] != 2 && sel[1] != 2) << sel[0] << "," << sel[1];
}

TEST(GreedySelect, BuildKindDownselectsAndMatchesSubsetBuild) {
  Rng rng(11);
  const ChannelMatrixSet h = core::random_channel_set(6, 4, rng);
  const PrecoderConfig cfg;  // kZf
  const auto p = Precoder::build_kind(h, cfg);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->n_tx(), 4u);
  EXPECT_EQ(p->n_streams(), 4u);

  const std::vector<std::size_t> sel = Precoder::greedy_select(h, 4);
  ASSERT_EQ(std::vector<std::size_t>(p->selected_users().begin(),
                                     p->selected_users().end()),
            sel);
  // The down-selected build equals a direct build on the client subset.
  const ChannelMatrixSet sub = core::client_subset(h, sel);
  const auto direct = Precoder::build_kind(sub, cfg);
  ASSERT_TRUE(direct.has_value());
  EXPECT_TRUE(same_weights(*p, *direct));
}

TEST(ClientSubset, RejectsBadIndices) {
  Rng rng(13);
  const ChannelMatrixSet h = core::random_channel_set(3, 3, rng);
  const std::vector<std::size_t> out_of_range{0, 7};
  EXPECT_THROW((void)core::client_subset(h, out_of_range),
               std::invalid_argument);
  const std::vector<std::size_t> empty;
  EXPECT_THROW((void)core::client_subset(h, empty), std::invalid_argument);
}

// ------------------------------------------------- regularized vs plain ZF

TEST(PrecoderZoo, RegularizedBeatsZfOnIllConditionedChannel) {
  // Highly correlated user rows: the joint channel is near rank deficient,
  // so the ZF inverse needs huge weights and the global power scale
  // collapses. The regularized solve gives up perfect nulling for orders
  // of magnitude more delivered power.
  Rng rng(17);
  const std::vector<std::vector<double>> gains(4,
                                               std::vector<double>(4, 10.0));
  const ChannelMatrixSet h =
      correlated_channel_set(gains, /*corr=*/0.98, rng);

  const auto zf = Precoder::build_kind(h, PrecoderConfig{});
  PrecoderConfig rcfg;
  rcfg.kind = PrecoderKind::kRzf;
  rcfg.ridge = PrecoderConfig::mmse_ridge(4, 1.0);
  const auto rzf = Precoder::build_kind(h, rcfg);
  ASSERT_TRUE(zf.has_value());
  ASSERT_TRUE(rzf.has_value());
  EXPECT_EQ(zf->kind(), PrecoderKind::kZf);
  EXPECT_EQ(rzf->kind(), PrecoderKind::kRzf);

  // The power story: the regularized weights are dramatically cheaper.
  EXPECT_GT(rzf->scale(), 3.0 * zf->scale());
  // And it wins end-to-end: mean post-beamforming SINR at unit noise.
  EXPECT_GT(mean_sinr(h, *rzf, 1.0), 2.0 * mean_sinr(h, *zf, 1.0));
}

TEST(PrecoderZoo, ZfLeakageExplodesUnderCsiErrorWhereRzfHoldsUp) {
  // Build from impaired CSI, evaluate against the true channel: the
  // plain inverse amplifies the feedback error on an ill-conditioned
  // channel; the ridge caps the amplification.
  Rng rng(19);
  const std::vector<std::vector<double>> gains(4,
                                               std::vector<double>(4, 10.0));
  const ChannelMatrixSet h_true =
      correlated_channel_set(gains, /*corr=*/0.95, rng);
  ChannelMatrixSet h_csi = h_true;
  const CsiImpairment imp{/*staleness=*/0.02, /*feedback_bits=*/0};
  Rng csi_rng(23);
  for (std::size_t k = 0; k < h_csi.n_subcarriers(); ++k) {
    phy::impair_csi(h_csi.at(k), imp, csi_rng);
  }

  const auto zf = Precoder::build_kind(h_csi, PrecoderConfig{});
  PrecoderConfig rcfg;
  rcfg.kind = PrecoderKind::kRzf;
  rcfg.ridge = PrecoderConfig::mmse_ridge(
      4, 1.0 + phy::csi_error_power(imp) * 10.0);
  const auto rzf = Precoder::build_kind(h_csi, rcfg);
  ASSERT_TRUE(zf.has_value());
  ASSERT_TRUE(rzf.has_value());
  EXPECT_GT(mean_sinr(h_true, *rzf, 1.0), mean_sinr(h_true, *zf, 1.0));
}

TEST(PrecoderZoo, ConjugateIsHermitianTransposeTimesScale) {
  Rng rng(29);
  const ChannelMatrixSet h = core::random_channel_set(2, 3, rng);
  PrecoderConfig cfg;
  cfg.kind = PrecoderKind::kConj;
  const auto p = Precoder::build_kind(h, cfg);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind(), PrecoderKind::kConj);
  const double s = p->scale();
  ASSERT_GT(s, 0.0);
  for (std::size_t k = 0; k < h.n_subcarriers(); k += 17) {
    const CMatrix& w = p->weights(k);
    for (std::size_t a = 0; a < h.n_tx(); ++a) {
      for (std::size_t c = 0; c < h.n_clients(); ++c) {
        const cplx expect = std::conj(h.at(k)(c, a)) * s;
        EXPECT_NEAR(std::abs(w(a, c) - expect), 0.0, 1e-12);
      }
    }
  }
}

// --------------------------------------------------------- bitwise parity

TEST(PrecoderZoo, DefaultConfigBitwiseMatchesLegacyBuild) {
  Rng rng(31);
  const ChannelMatrixSet h = core::random_channel_set(3, 3, rng);
  const auto legacy = Precoder::build(h);
  const auto zoo = Precoder::build_kind(h, PrecoderConfig{});
  ASSERT_TRUE(legacy.has_value());
  ASSERT_TRUE(zoo.has_value());
  EXPECT_TRUE(same_weights(*legacy, *zoo));
  EXPECT_TRUE(zoo->selected_users().empty());

  // Full-mask masked build is the same bits too.
  Workspace ws;
  const std::vector<std::uint8_t> all_active(h.n_tx(), 1);
  const auto masked =
      Precoder::build_masked(h, PrecoderConfig{}, all_active, ws);
  ASSERT_TRUE(masked.has_value());
  EXPECT_TRUE(same_weights(*legacy, *masked));
}

TEST(PrecoderZoo, RebuildKindMatchesFreshBuild) {
  Rng rng(37);
  const ChannelMatrixSet h1 = core::random_channel_set(3, 3, rng);
  const ChannelMatrixSet h2 = core::random_channel_set(3, 3, rng);
  PrecoderConfig cfg;
  cfg.kind = PrecoderKind::kRzf;
  cfg.ridge = 0.5;

  Workspace ws;
  auto p = Precoder::build_kind(h1, cfg);
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(p->rebuild_kind(h2, cfg, ws.pinv));
  const auto fresh = Precoder::build_kind(h2, cfg);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_TRUE(same_weights(*p, *fresh));
}

// ------------------------------------------- batched build, every backend

/// The reference for rebuild_kind's ZF and RZF weights: pinv_into one
/// subcarrier at a time, then the one global power scale.
struct PerSubcarrierBuild {
  std::vector<CMatrix> w;
  double scale = 0.0;
};

std::optional<PerSubcarrierBuild> per_subcarrier_build(
    const ChannelMatrixSet& h, const PrecoderConfig& cfg) {
  PinvScratch scratch;
  PerSubcarrierBuild out;
  out.w.resize(h.n_subcarriers());
  const double ridge = cfg.kind == PrecoderKind::kRzf ? cfg.ridge : 0.0;
  for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
    if (!pinv_into(h.at(k), ridge, scratch, out.w[k])) return std::nullopt;
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < h.n_tx(); ++i) {
    double mean_row = 0.0;
    for (const CMatrix& w : out.w) mean_row += w.row_power(i);
    mean_row /= static_cast<double>(out.w.size());
    worst = std::max(worst, mean_row);
  }
  if (worst <= 0.0) return std::nullopt;
  out.scale = std::sqrt(cfg.per_antenna_power / worst);
  for (CMatrix& w : out.w) {
    for (std::size_t r = 0; r < w.rows(); ++r) {
      for (std::size_t c = 0; c < w.cols(); ++c) {
        w(r, c) *= cplx{out.scale, 0.0};
      }
    }
  }
  return out;
}

/// The reference for build_masked: the reduced build, re-expanded with
/// zero rows for the inactive antennas.
std::optional<PerSubcarrierBuild> per_subcarrier_masked_build(
    const ChannelMatrixSet& h, const PrecoderConfig& cfg,
    const std::vector<std::uint8_t>& active) {
  std::vector<std::size_t> on;
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (active[i] != 0) on.push_back(i);
  }
  ChannelMatrixSet reduced(h.n_clients(), on.size());
  for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
    for (std::size_t c = 0; c < h.n_clients(); ++c) {
      for (std::size_t j = 0; j < on.size(); ++j) {
        reduced.at(k)(c, j) = h.at(k)(c, on[j]);
      }
    }
  }
  std::optional<PerSubcarrierBuild> small = per_subcarrier_build(reduced, cfg);
  if (!small) return std::nullopt;
  PerSubcarrierBuild out;
  out.scale = small->scale;
  out.w.assign(h.n_subcarriers(), CMatrix(h.n_tx(), h.n_clients()));
  for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
    for (std::size_t j = 0; j < on.size(); ++j) {
      for (std::size_t c = 0; c < h.n_clients(); ++c) {
        out.w[k](on[j], c) = small->w[k](j, c);
      }
    }
  }
  return out;
}

void expect_same_bits(const std::optional<Precoder>& got,
                      const std::optional<PerSubcarrierBuild>& want,
                      const std::string& what) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!got) return;
  const double scale = got->scale();
  EXPECT_EQ(std::memcmp(&scale, &want->scale, sizeof(double)), 0) << what;
  ASSERT_EQ(got->n_subcarriers(), want->w.size()) << what;
  for (std::size_t k = 0; k < want->w.size(); ++k) {
    const CMatrix& w = got->weights(k);
    const CMatrix& r = want->w[k];
    ASSERT_EQ(w.rows(), r.rows()) << what;
    ASSERT_EQ(w.cols(), r.cols()) << what;
    for (std::size_t i = 0; i < r.rows(); ++i) {
      for (std::size_t j = 0; j < r.cols(); ++j) {
        ASSERT_EQ(std::memcmp(&w(i, j), &r(i, j), sizeof(cplx)), 0)
            << what << " subcarrier " << k << " W(" << i << ", " << j
            << ") = " << w(i, j) << " want " << r(i, j);
      }
    }
  }
}

/// Channel set with N x n_tx per subcarrier. Mode 0 is Rayleigh; mode 1
/// rounds every entry to a Gaussian integer in [-2, 2]^2 (exact zeros,
/// and |z|^2 ties in the pivot search).
ChannelMatrixSet parity_channel(std::size_t n, std::size_t n_tx, int mode,
                                Rng& rng) {
  ChannelMatrixSet h = core::random_channel_set(n, n_tx, rng);
  if (mode == 1) {
    for (std::size_t k = 0; k < h.n_subcarriers(); ++k) {
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t a = 0; a < n_tx; ++a) {
          const cplx v = h.at(k)(c, a);
          h.at(k)(c, a) = {std::clamp(std::round(v.real() * 1.5), -2.0, 2.0),
                           std::clamp(std::round(v.imag() * 1.5), -2.0, 2.0)};
        }
      }
    }
  }
  return h;
}

TEST(PrecoderBatchedBuild, MatchesPerSubcarrierPinvOnEveryBackend) {
  // The reference runs under the scalar table (pinv_into's own kernels
  // are bitwise backend-invariant); every backend's build must match it.
  ASSERT_TRUE(simd::set_backend(simd::Backend::kScalar));
  struct Case {
    std::string name;
    ChannelMatrixSet h;
    PrecoderConfig cfg;
    std::vector<std::uint8_t> mask;  // empty: build_kind
    std::optional<PerSubcarrierBuild> want;
  };
  std::vector<Case> cases;
  Rng rng(29);
  for (std::size_t n = 1; n <= 12; ++n) {
    for (const std::size_t n_tx : {n, n + 1, n + 3}) {
      for (int mode = 0; mode < 2; ++mode) {
        for (const PrecoderKind kind :
             {PrecoderKind::kZf, PrecoderKind::kRzf}) {
          PrecoderConfig cfg;
          cfg.kind = kind;
          cfg.ridge = kind == PrecoderKind::kRzf ? 0.37 : 0.0;
          cfg.per_antenna_power = 2.5;
          const std::string tag = "N=" + std::to_string(n) +
                                  " n_tx=" + std::to_string(n_tx) +
                                  " mode=" + std::to_string(mode) + " " +
                                  phy::precoder_kind_name(kind);
          Case full{tag, parity_channel(n, n_tx, mode, rng), cfg, {}, {}};
          full.want = per_subcarrier_build(full.h, cfg);
          cases.push_back(full);
          // Greedy: two more users than antennas; the build serves the
          // selected subset.
          Case greedy{tag + " greedy",
                      parity_channel(n_tx + 2, n_tx, mode, rng), cfg, {}, {}};
          greedy.want = per_subcarrier_build(
              core::client_subset(greedy.h,
                                  Precoder::greedy_select(greedy.h, n_tx)),
              cfg);
          cases.push_back(greedy);
          if (n_tx > n) {
            // Masked: the last antenna quarantined.
            Case masked{tag + " masked", full.h, cfg,
                        std::vector<std::uint8_t>(n_tx, 1), {}};
            masked.mask.back() = 0;
            masked.want =
                per_subcarrier_masked_build(masked.h, cfg, masked.mask);
            cases.push_back(masked);
          }
        }
      }
    }
  }
  std::size_t built = 0;
  for (const Case& c : cases) built += c.want.has_value() ? 1 : 0;
  EXPECT_GT(built, cases.size() * 3 / 4);
  for (const simd::Backend b :
       {simd::Backend::kScalar, simd::Backend::kSse2, simd::Backend::kAvx2,
        simd::Backend::kAvx512, simd::Backend::kNeon}) {
    if (!simd::set_backend(b)) continue;
    Workspace ws;
    for (const Case& c : cases) {
      const std::string what =
          std::string(simd::backend_name(b)) + " " + c.name;
      if (c.mask.empty()) {
        expect_same_bits(Precoder::build_kind(c.h, c.cfg), c.want, what);
      } else {
        expect_same_bits(Precoder::build_masked(c.h, c.cfg, c.mask, ws),
                         c.want, what);
      }
    }
  }
  simd::reset_backend_cache();
}

TEST(PrecoderBatchedBuild, SingularSubcarrierGivesNulloptInAnyBlock) {
  Rng rng(31);
  const ChannelMatrixSet good = core::random_channel_set(4, 5, rng);
  // First block, a middle block, and the tail the AVX-512 build reruns.
  for (const std::size_t bad : {0u, 20u, 50u}) {
    ChannelMatrixSet h = good;
    for (std::size_t a = 0; a < 5; ++a) h.at(bad)(3, a) = h.at(bad)(0, a);
    for (const simd::Backend b :
         {simd::Backend::kScalar, simd::Backend::kSse2, simd::Backend::kAvx2,
          simd::Backend::kAvx512, simd::Backend::kNeon}) {
      if (!simd::set_backend(b)) continue;
      EXPECT_FALSE(per_subcarrier_build(h, PrecoderConfig{}).has_value());
      EXPECT_FALSE(Precoder::build_kind(h, PrecoderConfig{}).has_value())
          << simd::backend_name(b) << " singular subcarrier " << bad;
    }
  }
  simd::reset_backend_cache();
}

// ------------------------------------------------------------- CSI model

TEST(CsiImpairment, NullImpairmentIsBitwiseNoOpAndLeavesRngUntouched) {
  Rng rng(41);
  const ChannelMatrixSet h = core::random_channel_set(2, 2, rng);
  CMatrix m = h.at(0);
  Rng imp_rng(5);
  Rng ref_rng(5);
  phy::impair_csi(m, CsiImpairment{}, imp_rng);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(std::memcmp(&m(r, c), &h.at(0)(r, c), sizeof(cplx)), 0);
    }
  }
  EXPECT_EQ(imp_rng.next_u64(), ref_rng.next_u64());
}

TEST(CsiImpairment, AgingIsDeterministicAndPowerPreservingOnAverage) {
  Rng rng(43);
  const ChannelMatrixSet h = core::random_channel_set(4, 4, rng);
  const CsiImpairment imp{/*staleness=*/0.5, /*feedback_bits=*/0};

  CMatrix a = h.at(0);
  CMatrix b = h.at(0);
  Rng ra(77);
  Rng rb(77);
  phy::impair_csi(a, imp, ra);
  phy::impair_csi(b, imp, rb);
  double p_in = 0.0;
  double p_out = 0.0;
  bool changed = false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_EQ(std::memcmp(&a(r, c), &b(r, c), sizeof(cplx)), 0);
      changed |= std::memcmp(&a(r, c), &h.at(0)(r, c), sizeof(cplx)) != 0;
      p_in += std::norm(h.at(0)(r, c));
      p_out += std::norm(a(r, c));
    }
  }
  EXPECT_TRUE(changed);
  // AR(1) with innovation variance matched per entry: power is conserved
  // in expectation (loose bound; 16 entries of one matrix).
  EXPECT_NEAR(p_out / p_in, 1.0, 0.75);
}

TEST(CsiImpairment, QuantizationErrorShrinksWithBits) {
  Rng rng(47);
  const ChannelMatrixSet h = core::random_channel_set(4, 4, rng);
  const auto err_at = [&](unsigned bits) {
    CMatrix m = h.at(0);
    phy::quantize_csi(m, bits);
    double e = 0.0;
    double p = 0.0;
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) {
        e += std::norm(m(r, c) - h.at(0)(r, c));
        p += std::norm(h.at(0)(r, c));
      }
    }
    return e / p;
  };
  const double e4 = err_at(4);
  const double e6 = err_at(6);
  const double e8 = err_at(8);
  EXPECT_GT(e4, e6);
  EXPECT_GT(e6, e8);
  EXPECT_LT(e8, 1e-3);
  EXPECT_THROW(
      {
        CMatrix m = h.at(0);
        phy::quantize_csi(m, 1);  // a sign bit alone cannot code magnitude
      },
      std::invalid_argument);
}

TEST(CsiImpairment, ErrorPowerModelIsMonotone) {
  const CsiImpairment fresh{0.0, 0};
  EXPECT_EQ(phy::csi_error_power(fresh), 0.0);
  const CsiImpairment mild{0.01, 0};
  const CsiImpairment stale{0.1, 0};
  EXPECT_GT(phy::csi_error_power(stale), phy::csi_error_power(mild));
  const CsiImpairment coarse{0.0, 4};
  const CsiImpairment fine{0.0, 8};
  EXPECT_GT(phy::csi_error_power(coarse), phy::csi_error_power(fine));
  const CsiImpairment both{0.1, 4};
  EXPECT_GT(phy::csi_error_power(both), phy::csi_error_power(stale));
}

TEST(PrecoderKindNames, RoundTripAndAliases) {
  EXPECT_EQ(phy::parse_precoder_kind("zf"), PrecoderKind::kZf);
  EXPECT_EQ(phy::parse_precoder_kind("rzf"), PrecoderKind::kRzf);
  EXPECT_EQ(phy::parse_precoder_kind("mmse"), PrecoderKind::kRzf);
  EXPECT_EQ(phy::parse_precoder_kind("conj"), PrecoderKind::kConj);
  EXPECT_FALSE(phy::parse_precoder_kind("dirty-paper").has_value());
}

}  // namespace
}  // namespace jmb
