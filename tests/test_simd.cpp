// SIMD dispatch layer: per-backend batch-wrapper semantics, randomized
// bitwise parity of every ported kernel against the scalar reference
// table, and the JMB_SIMD override round-trip.
//
// The parity tests are the enforcement arm of the dispatch contract
// (DESIGN.md "SIMD model"): every backend must produce byte-identical
// outputs, so they compare raw memory, not values-within-epsilon.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <complex>

#include "dsp/fft_plan.h"
#include "dsp/types.h"
#include "linalg/pinv.h"
#include "simd/aligned.h"
#include "simd/backend.h"
#include "simd/kernels.h"
#include "simd/tables.h"

namespace jmb::simd {
namespace {

constexpr Backend kAllBackends[] = {Backend::kScalar, Backend::kSse2,
                                    Backend::kAvx2, Backend::kAvx512,
                                    Backend::kNeon};

const Kernels* table_of(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return scalar_kernels();
    case Backend::kSse2:
      return sse2_kernels();
    case Backend::kAvx2:
      return avx2_kernels();
    case Backend::kAvx512:
      return avx512_kernels();
    case Backend::kNeon:
      return neon_kernels();
  }
  return nullptr;
}

/// Every runnable backend table on this machine (scalar included).
std::vector<const Kernels*> runnable_tables() {
  std::vector<const Kernels*> out;
  for (const Backend b : kAllBackends) {
    if (backend_available(b)) out.push_back(table_of(b));
  }
  return out;
}

std::vector<double> random_doubles(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::vector<double> v(n);
  for (double& x : v) x = u(rng);
  return v;
}

// ---- selection & override ------------------------------------------------

TEST(SimdBackend, ScalarIsAlwaysRunnable) {
  EXPECT_TRUE(backend_available(Backend::kScalar));
  ASSERT_NE(scalar_kernels(), nullptr);
  EXPECT_STREQ(scalar_kernels()->name, "scalar");
}

TEST(SimdBackend, ParseBackendNames) {
  EXPECT_EQ(parse_backend("scalar"), Backend::kScalar);
  EXPECT_EQ(parse_backend("sse2"), Backend::kSse2);
  EXPECT_EQ(parse_backend("avx2"), Backend::kAvx2);
  EXPECT_EQ(parse_backend("avx512"), Backend::kAvx512);
  EXPECT_EQ(parse_backend("avx512f"), Backend::kAvx512);
  EXPECT_EQ(parse_backend("neon"), Backend::kNeon);
  EXPECT_EQ(parse_backend(""), std::nullopt);
  EXPECT_EQ(parse_backend("auto"), std::nullopt);
  EXPECT_EQ(parse_backend("mmx"), std::nullopt);
}

TEST(SimdBackend, NamesRoundTripThroughParse) {
  for (const Backend b : kAllBackends) {
    EXPECT_EQ(parse_backend(backend_name(b)), b) << backend_name(b);
  }
}

TEST(SimdBackend, BestBackendIsRunnable) {
  EXPECT_TRUE(backend_available(best_backend()));
}

TEST(SimdBackend, SetBackendForcesTheActiveTable) {
  for (const Backend b : kAllBackends) {
    if (!backend_available(b)) {
      EXPECT_FALSE(set_backend(b)) << backend_name(b);
      continue;
    }
    ASSERT_TRUE(set_backend(b));
    EXPECT_EQ(active_backend(), b);
    EXPECT_STREQ(active_kernels().name, backend_name(b));
  }
  reset_backend_cache();
}

TEST(SimdBackend, EnvOverrideRoundTrip) {
  for (const Backend b : kAllBackends) {
    if (!backend_available(b)) continue;
    ASSERT_EQ(setenv("JMB_SIMD", backend_name(b), 1), 0);
    reset_backend_cache();
    EXPECT_EQ(active_backend(), b) << backend_name(b);
    EXPECT_STREQ(active_kernels().name, backend_name(b));
  }
  // Unknown and empty values fall back to the best native backend.
  ASSERT_EQ(setenv("JMB_SIMD", "not-a-backend", 1), 0);
  reset_backend_cache();
  EXPECT_EQ(active_backend(), best_backend());
  ASSERT_EQ(unsetenv("JMB_SIMD"), 0);
  reset_backend_cache();
  EXPECT_EQ(active_backend(), best_backend());
}

TEST(SimdAligned, VectorsAreCacheLineAligned) {
  acvec c(3);
  advec d(5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) % kCacheLine, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % kCacheLine, 0u);
}

// ---- batch-wrapper semantics, per backend --------------------------------

TEST(SimdKernels, CmacMatchesComplexArithmetic) {
  // n = 5 exercises both the vector body and the scalar tail on every
  // backend (kLanes is 1, 2 or 4).
  const std::size_t n = 5;
  std::mt19937_64 rng(11);
  const std::vector<double> w = random_doubles(rng, 2 * n);
  const std::vector<double> x = random_doubles(rng, 2 * n);
  for (const Kernels* k : runnable_tables()) {
    std::vector<double> acc(2 * n, 0.0);
    k->cmac(acc.data(), w.data(), x.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const cplx wi{w[2 * i], w[2 * i + 1]};
      const cplx xi{x[2 * i], x[2 * i + 1]};
      const cplx e = wi * xi;
      EXPECT_EQ(acc[2 * i], e.real()) << k->name << " lane " << i;
      EXPECT_EQ(acc[2 * i + 1], e.imag()) << k->name << " lane " << i;
    }
  }
}

TEST(SimdKernels, CaxpySubMatchesComplexArithmetic) {
  const std::size_t n = 7;
  const std::size_t c0 = 2;
  std::mt19937_64 rng(12);
  const std::vector<double> krow = random_doubles(rng, 2 * n);
  const std::vector<double> row0 = random_doubles(rng, 2 * n);
  const cplx f{0.25, -1.5};
  for (const Kernels* k : runnable_tables()) {
    std::vector<double> row = row0;
    k->caxpy_sub(row.data(), krow.data(), f.real(), f.imag(), c0, n);
    for (std::size_t c = 0; c < n; ++c) {
      cplx e{row0[2 * c], row0[2 * c + 1]};
      if (c >= c0) {
        e -= cplx{f.real() * krow[2 * c] - f.imag() * krow[2 * c + 1],
                  f.real() * krow[2 * c + 1] + f.imag() * krow[2 * c]};
      }
      EXPECT_EQ(row[2 * c], e.real()) << k->name << " col " << c;
      EXPECT_EQ(row[2 * c + 1], e.imag()) << k->name << " col " << c;
    }
  }
}

TEST(SimdKernels, HermitianConjugateTransposes) {
  const std::size_t rows = 3;
  const std::size_t cols = 5;
  std::mt19937_64 rng(13);
  const std::vector<double> a = random_doubles(rng, 2 * rows * cols);
  for (const Kernels* k : runnable_tables()) {
    std::vector<double> out(2 * rows * cols, 0.0);
    k->hermitian(a.data(), rows, cols, out.data());
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        EXPECT_EQ(out[2 * (c * rows + r)], a[2 * (r * cols + c)]) << k->name;
        EXPECT_EQ(out[2 * (c * rows + r) + 1], -a[2 * (r * cols + c) + 1])
            << k->name;
      }
    }
  }
}

TEST(SimdKernels, FftPassFirstStageIsAddSub) {
  // Stage len = 2 with twiddle 1 + 0i: [a, b] -> [a + b, a - b].
  const double tw[2] = {1.0, 0.0};
  for (const Kernels* k : runnable_tables()) {
    double d[8] = {1.0, 2.0, 3.0, -4.0, 0.5, 0.0, -0.25, 8.0};
    k->fft_pass(d, tw, 4, 2);
    const double expect[8] = {4.0, -2.0, -2.0, 6.0, 0.25, 8.0, 0.75, -8.0};
    for (int i = 0; i < 8; ++i) EXPECT_EQ(d[i], expect[i]) << k->name;
  }
}

TEST(SimdKernels, ViterbiAcsTieKeepsEvenPredecessor) {
  // All-zero metrics with all +1 signs make every candidate pair tie at
  // la + lb; the strictly-greater select must keep the even predecessor,
  // matching the sequential reference update order.
  alignas(64) double signs[4 * kViterbiStates];
  for (double& s : signs) s = 1.0;
  alignas(64) double metric[kViterbiStates] = {};
  for (const Kernels* k : runnable_tables()) {
    alignas(64) double next[kViterbiStates];
    std::uint8_t surv[kViterbiStates];
    std::uint8_t surv_bit[kViterbiStates];
    k->viterbi_acs(metric, signs, 0.5, 0.25, next, surv, surv_bit);
    constexpr std::size_t kHalf = kViterbiStates / 2;
    for (std::size_t ns = 0; ns < kViterbiStates; ++ns) {
      EXPECT_EQ(next[ns], 0.75) << k->name << " state " << ns;
      EXPECT_EQ(surv[ns], 2 * (ns % kHalf)) << k->name << " state " << ns;
      EXPECT_EQ(surv_bit[ns], ns / kHalf) << k->name << " state " << ns;
    }
  }
}

// ---- randomized bitwise parity vs the scalar table -----------------------

class SimdParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimdParity, FftPassAndRun) {
  std::mt19937_64 rng(GetParam());
  const Kernels* ref = scalar_kernels();
  for (const std::size_t n : {2u, 4u, 8u, 64u, 256u}) {
    const std::vector<double> d0 = random_doubles(rng, 2 * n);
    const std::vector<double> tw = random_doubles(rng, 2 * n);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      std::vector<double> want = d0;
      ref->fft_pass(want.data(), tw.data(), n, len);
      for (const Kernels* k : runnable_tables()) {
        std::vector<double> got = d0;
        k->fft_pass(got.data(), tw.data(), n, len);
        EXPECT_EQ(std::memcmp(got.data(), want.data(), 2 * n * sizeof(double)),
                  0)
            << k->name << " n=" << n << " len=" << len;
      }
    }
    std::vector<double> want = d0;
    ref->fft_run(want.data(), tw.data(), n);
    for (const Kernels* k : runnable_tables()) {
      std::vector<double> got = d0;
      k->fft_run(got.data(), tw.data(), n);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), 2 * n * sizeof(double)),
                0)
          << k->name << " fft_run n=" << n;
    }
  }
}

TEST_P(SimdParity, AxpyAccSubMacEwKernels) {
  std::mt19937_64 rng(GetParam() + 101);
  const Kernels* ref = scalar_kernels();
  for (const std::size_t n : {1u, 3u, 26u, 52u, 65u}) {
    const std::vector<double> b = random_doubles(rng, 2 * n);
    const std::vector<double> x = random_doubles(rng, 2 * n);
    const std::vector<double> acc0 = random_doubles(rng, 2 * n);
    const double vr = acc0[0];
    const double vi = b[0];
    const std::size_t c0 = n / 3;
    const auto bytes = 2 * n * sizeof(double);

    std::vector<double> w1 = acc0;
    ref->caxpy_acc(w1.data(), b.data(), vr, vi, n);
    std::vector<double> w2 = acc0;
    ref->caxpy_sub(w2.data(), b.data(), vr, vi, c0, n);
    std::vector<double> w3 = acc0;
    ref->cmac(w3.data(), b.data(), x.data(), n);
    std::vector<double> w4 = acc0;
    ref->cacc(w4.data(), b.data(), n);
    std::vector<double> w5(2 * n);
    ref->cmul_ew(w5.data(), b.data(), x.data(), n);

    for (const Kernels* k : runnable_tables()) {
      std::vector<double> g = acc0;
      k->caxpy_acc(g.data(), b.data(), vr, vi, n);
      EXPECT_EQ(std::memcmp(g.data(), w1.data(), bytes), 0)
          << k->name << " caxpy_acc n=" << n;
      g = acc0;
      k->caxpy_sub(g.data(), b.data(), vr, vi, c0, n);
      EXPECT_EQ(std::memcmp(g.data(), w2.data(), bytes), 0)
          << k->name << " caxpy_sub n=" << n;
      g = acc0;
      k->cmac(g.data(), b.data(), x.data(), n);
      EXPECT_EQ(std::memcmp(g.data(), w3.data(), bytes), 0)
          << k->name << " cmac n=" << n;
      g = acc0;
      k->cacc(g.data(), b.data(), n);
      EXPECT_EQ(std::memcmp(g.data(), w4.data(), bytes), 0)
          << k->name << " cacc n=" << n;
      g.assign(2 * n, 0.0);
      k->cmul_ew(g.data(), b.data(), x.data(), n);
      EXPECT_EQ(std::memcmp(g.data(), w5.data(), bytes), 0)
          << k->name << " cmul_ew n=" << n;
      // Aliased output (out == a), the SynthesisStage LTF configuration.
      g = b;
      k->cmul_ew(g.data(), g.data(), x.data(), n);
      EXPECT_EQ(std::memcmp(g.data(), w5.data(), bytes), 0)
          << k->name << " cmul_ew aliased n=" << n;
    }
  }
}

TEST_P(SimdParity, CmacnMatchesSuccessiveCmacs) {
  std::mt19937_64 rng(GetParam() + 202);
  const Kernels* ref = scalar_kernels();
  for (const std::size_t nrows : {1u, 2u, 4u, 7u}) {
    const std::size_t n = 26;
    std::vector<std::vector<double>> w(nrows), x(nrows);
    std::vector<const double*> wp(nrows), xp(nrows);
    for (std::size_t j = 0; j < nrows; ++j) {
      w[j] = random_doubles(rng, 2 * n);
      x[j] = random_doubles(rng, 2 * n);
      wp[j] = w[j].data();
      xp[j] = x[j].data();
    }
    const std::vector<double> acc0 = random_doubles(rng, 2 * n);
    // Reference: the unfused per-stream loop.
    std::vector<double> want = acc0;
    for (std::size_t j = 0; j < nrows; ++j) {
      ref->cmac(want.data(), wp[j], xp[j], n);
    }
    for (const Kernels* k : runnable_tables()) {
      std::vector<double> got = acc0;
      k->cmacn(got.data(), wp.data(), xp.data(), nrows, n);
      EXPECT_EQ(
          std::memcmp(got.data(), want.data(), 2 * n * sizeof(double)), 0)
          << k->name << " cmacn nrows=" << nrows;
    }
  }
}

TEST_P(SimdParity, MatvecAndHermitian) {
  std::mt19937_64 rng(GetParam() + 303);
  const Kernels* ref = scalar_kernels();
  for (const std::size_t rows : {1u, 2u, 4u, 5u, 10u}) {
    const std::size_t cols = rows;
    const std::vector<double> a = random_doubles(rng, 2 * rows * cols);
    const std::vector<double> x = random_doubles(rng, 2 * cols);
    const auto bytes = 2 * rows * cols * sizeof(double);

    std::vector<double> w1(2 * rows);
    ref->cmatvec(a.data(), rows, cols, x.data(), w1.data());
    std::vector<double> w2(2 * rows * cols);
    ref->hermitian(a.data(), rows, cols, w2.data());

    for (const Kernels* k : runnable_tables()) {
      std::vector<double> g1(2 * rows);
      k->cmatvec(a.data(), rows, cols, x.data(), g1.data());
      EXPECT_EQ(
          std::memcmp(g1.data(), w1.data(), 2 * rows * sizeof(double)), 0)
          << k->name << " cmatvec " << rows << "x" << cols;
      std::vector<double> g2(2 * rows * cols);
      k->hermitian(a.data(), rows, cols, g2.data());
      EXPECT_EQ(std::memcmp(g2.data(), w2.data(), bytes), 0)
          << k->name << " hermitian " << rows << "x" << cols;
    }
  }
}

/// Inputs of beam_gains calls for every row c: H (row c's nt runs at
/// offset c * nt runs) and W as runs across n_sc subcarriers
/// (Kernels::beam_gains's layout), a few exact +-0 entries in H, and W
/// set to infinity wherever every client's H entry for that AP is zero on
/// that subcarrier, so a lane that failed to skip would turn NaN.
struct BeamGainsCase {
  std::size_t nc, nt, n_sc;
  std::vector<double> h, rot, w;
};

BeamGainsCase beam_gains_case(std::mt19937_64& rng, std::size_t nc,
                              std::size_t nt, std::size_t n_sc) {
  BeamGainsCase in{nc, nt, n_sc, random_doubles(rng, 2 * nc * nt * n_sc),
                   random_doubles(rng, 2 * nt), random_doubles(rng,
                                                              2 * nt * nc *
                                                                  n_sc)};
  const auto hi = [&](std::size_t c, std::size_t a, std::size_t k) {
    return 2 * ((c * nt + a) * n_sc + k);
  };
  for (std::size_t k = 0; k < n_sc; ++k) {
    for (std::size_t a = 0; a < nt; ++a) {
      const std::size_t pick = (k * 7 + a * 3) % 5;
      if (pick == 0) {
        // The whole column is zero (mixed signs): a skip on every client.
        for (std::size_t c = 0; c < nc; ++c) {
          in.h[hi(c, a, k)] = (c % 2) ? -0.0 : 0.0;
          in.h[hi(c, a, k) + 1] = (c % 3) ? 0.0 : -0.0;
        }
        for (std::size_t j = 0; j < nc; ++j) {
          in.w[2 * ((a * nc + j) * n_sc + k)] =
              std::numeric_limits<double>::infinity();
        }
      } else if (pick == 1) {
        in.h[hi(a % nc, a, k)] = -0.0;  // one client only: real part
      }
    }
  }
  return in;
}

/// Every row's outputs: |G(c, c)|^2 for all c, then the interference.
std::vector<double> run_beam_gains(const Kernels& k, const BeamGainsCase& in) {
  std::vector<double> out(2 * in.nc * in.n_sc, -1.0);
  for (std::size_t c = 0; c < in.nc; ++c) {
    k.beam_gains(in.h.data() + 2 * c * in.nt * in.n_sc, in.rot.data(),
                 in.w.data(), c, in.nc, in.nt, in.n_sc,
                 out.data() + c * in.n_sc,
                 out.data() + (in.nc + c) * in.n_sc);
  }
  return out;
}

/// The per-subcarrier loop beam_gains replaces, one subcarrier and one
/// matrix at a time: H_err = H rot, then multiply_into's accumulation
/// (from zero, a ascending, skipping a zero H_err entry), then std::norm.
std::vector<double> reference_beam_gains(const BeamGainsCase& in) {
  const auto at = [](const std::vector<double>& v, std::size_t i) {
    return cplx{v[2 * i], v[2 * i + 1]};
  };
  const auto mul = [](cplx a, cplx b) {
    return cplx{a.real() * b.real() - a.imag() * b.imag(),
                a.real() * b.imag() + a.imag() * b.real()};
  };
  const std::size_t nc = in.nc, nt = in.nt, n_sc = in.n_sc;
  std::vector<double> out(2 * nc * n_sc);
  std::vector<cplx> g(nc);
  for (std::size_t k = 0; k < n_sc; ++k) {
    for (std::size_t c = 0; c < nc; ++c) {
      std::fill(g.begin(), g.end(), cplx{});
      for (std::size_t a = 0; a < nt; ++a) {
        const cplx e = mul(at(in.h, (c * nt + a) * n_sc + k), at(in.rot, a));
        if (e == cplx{}) continue;
        for (std::size_t j = 0; j < nc; ++j) {
          g[j] += mul(e, at(in.w, (a * nc + j) * n_sc + k));
        }
      }
      double interf = 0.0;
      for (std::size_t j = 0; j < nc; ++j) {
        if (j != c) interf += std::norm(g[j]);
      }
      out[c * n_sc + k] = std::norm(g[c]);
      out[nc * n_sc + c * n_sc + k] = interf;
    }
  }
  return out;
}

TEST_P(SimdParity, BeamGainsMatchThePerSubcarrierLoop) {
  std::mt19937_64 rng(GetParam() + 606);
  // n_sc covers every backend's block tail (52 is not a multiple of 8);
  // nc > 8 splits G's row into column blocks.
  for (const std::size_t n_sc : {1u, 3u, 4u, 7u, 9u, 52u}) {
    for (const std::size_t nc : {1u, 2u, 3u, 8u, 9u, 10u}) {
      for (const std::size_t nt : {nc, nc + 2}) {
        const BeamGainsCase in = beam_gains_case(rng, nc, nt, n_sc);
        const std::vector<double> want = reference_beam_gains(in);
        for (const double v : want) ASSERT_FALSE(std::isnan(v));
        for (const Kernels* k : runnable_tables()) {
          const std::vector<double> got = run_beam_gains(*k, in);
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                want.size() * sizeof(double)),
                    0)
              << k->name << " nc=" << nc << " nt=" << nt << " n_sc=" << n_sc;
        }
      }
    }
  }
}

/// The per-element loop erfc_sqrt batches, as the kernel's comment
/// spells it out.
std::vector<double> reference_erfc_sqrt(const std::vector<double>& x,
                                        double scale,
                                        const std::vector<double>& table) {
  std::vector<double> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double y32 = std::sqrt(std::max(x[i], 0.0) * scale) *
                       static_cast<double>(kErfcSegmentsPerUnit);
    if (!(y32 < static_cast<double>(kErfcSegments))) {
      out[i] = std::isnan(y32) ? y32 : 0.0;
      continue;
    }
    const auto j = static_cast<std::int32_t>(y32);
    const double u = y32 - (static_cast<double>(j) + 0.5);
    const double* piece =
        table.data() + kErfcStride * static_cast<std::size_t>(j);
    double p = piece[kErfcDegree];
    for (std::size_t d = kErfcDegree; d-- > 0;) {
      p = p * u + piece[d];
    }
    out[i] = p;
  }
  return out;
}

TEST_P(SimdParity, ErfcSqrtMatchesThePerElementLoop) {
  std::mt19937_64 rng(GetParam() + 707);
  const std::vector<double> table =
      random_doubles(rng, kErfcStride * kErfcSegments);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::uniform_real_distribution<double> y(0.0, 9.0);
  std::uniform_int_distribution<int> pick(0, 9);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 8u, 9u, 48u, 52u, 64u}) {
    for (const double scale : {1.0, 0.5, 0.1, 1.0 / 42.0}) {
      std::vector<double> x(n);
      for (double& v : x) {
        const double yy = y(rng);
        switch (pick(rng)) {
          case 0: v = -0.0; break;
          case 1: v = -y(rng); break;
          case 2: v = std::numeric_limits<double>::denorm_min(); break;
          case 3: v = kInf; break;
          case 4: v = std::numeric_limits<double>::quiet_NaN(); break;
          case 5: {  // a piece's end, at y = j/32 exactly
            const double end = std::floor(yy * 32.0) / 32.0;
            v = end * end / scale;
            break;
          }
          default: v = yy * yy / scale;
        }
      }
      const std::vector<double> want = reference_erfc_sqrt(x, scale, table);
      for (const Kernels* k : runnable_tables()) {
        std::vector<double> got(n, -1.0);
        k->erfc_sqrt(x.data(), scale, table.data(), n, got.data());
        EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(double)), 0)
            << k->name << " n=" << n << " scale=" << scale;
      }
    }
  }
}

TEST_P(SimdParity, ViterbiAcs) {
  std::mt19937_64 rng(GetParam() + 404);
  const Kernels* ref = scalar_kernels();
  std::uniform_real_distribution<double> u(-4.0, 4.0);
  std::bernoulli_distribution coin(0.5);
  for (int trial = 0; trial < 8; ++trial) {
    alignas(64) double signs[4 * kViterbiStates];
    for (double& s : signs) s = coin(rng) ? 1.0 : -1.0;
    alignas(64) double metric[kViterbiStates];
    for (double& m : metric) {
      // A sprinkle of -inf models unreachable trellis states.
      m = coin(rng) && trial < 2 ? -std::numeric_limits<double>::infinity()
                                 : u(rng);
    }
    const double la = u(rng);
    const double lb = u(rng);

    alignas(64) double want_metric[kViterbiStates];
    std::uint8_t want_surv[kViterbiStates];
    std::uint8_t want_bit[kViterbiStates];
    ref->viterbi_acs(metric, signs, la, lb, want_metric, want_surv, want_bit);
    for (const Kernels* k : runnable_tables()) {
      alignas(64) double got_metric[kViterbiStates];
      std::uint8_t got_surv[kViterbiStates];
      std::uint8_t got_bit[kViterbiStates];
      k->viterbi_acs(metric, signs, la, lb, got_metric, got_surv, got_bit);
      EXPECT_EQ(std::memcmp(got_metric, want_metric, sizeof(want_metric)), 0)
          << k->name << " trial " << trial;
      EXPECT_EQ(std::memcmp(got_surv, want_surv, sizeof(want_surv)), 0)
          << k->name << " trial " << trial;
      EXPECT_EQ(std::memcmp(got_bit, want_bit, sizeof(want_bit)), 0)
          << k->name << " trial " << trial;
    }
  }
}

TEST_P(SimdParity, PlannedFftUnderForcedBackends) {
  // End to end through FftPlan: every backend must reproduce the scalar
  // transform bit for bit, forward and inverse.
  std::mt19937_64 rng(GetParam() + 505);
  for (const std::size_t n : {64u, 256u}) {
    const FftPlan plan(n);
    const std::vector<double> d0 = random_doubles(rng, 2 * n);
    acvec buf(n);
    auto load = [&] {
      std::memcpy(reinterpret_cast<double*>(buf.data()), d0.data(),
                  2 * n * sizeof(double));
    };
    ASSERT_TRUE(set_backend(Backend::kScalar));
    load();
    plan.forward(std::span<cplx>(buf.data(), n));
    const acvec want_fwd = buf;
    plan.inverse(std::span<cplx>(buf.data(), n));
    const acvec want_rt = buf;
    for (const Backend b : kAllBackends) {
      if (!backend_available(b)) continue;
      ASSERT_TRUE(set_backend(b));
      load();
      plan.forward(std::span<cplx>(buf.data(), n));
      EXPECT_EQ(std::memcmp(buf.data(), want_fwd.data(),
                            2 * n * sizeof(double)),
                0)
          << backend_name(b) << " forward n=" << n;
      plan.inverse(std::span<cplx>(buf.data(), n));
      EXPECT_EQ(
          std::memcmp(buf.data(), want_rt.data(), 2 * n * sizeof(double)), 0)
          << backend_name(b) << " round trip n=" << n;
    }
    reset_backend_cache();
  }
}

/// Doubles that steer std::complex division (libgcc's __divdc3) into each
/// of its branches: zeros, subnormals, the DBL_MIN, DBL_EPSILON and
/// DBL_MAX / 2 * DBL_EPSILON scaling thresholds and their neighbours,
/// huge values past DBL_MAX / 2, infinities and NaN.
std::vector<double> division_edge_values() {
  using L = std::numeric_limits<double>;
  const double eps = L::epsilon();
  const double rmax2 = L::max() / 2 * eps;
  std::vector<double> v = {0.0,
                           1.0,
                           3.0,
                           0.7,
                           L::denorm_min(),
                           1e-310,
                           L::min(),
                           L::min() * 0.75,
                           std::nextafter(L::min(), 1.0),
                           1e-300,
                           1e-160,
                           eps,
                           eps * 0.5,
                           std::nextafter(eps, 0.0),
                           std::nextafter(eps, 1.0),
                           1e-20,
                           rmax2,
                           std::nextafter(rmax2, 0.0),
                           rmax2 * 2,
                           1e200,
                           L::max() / 2,
                           std::nextafter(L::max() / 2, 0.0),
                           L::max(),
                           L::infinity(),
                           L::quiet_NaN()};
  const std::size_t n = v.size();
  for (std::size_t i = 0; i < n; ++i) v.push_back(-v[i]);
  return v;
}

TEST_P(SimdParity, ComplexDivisionMatchesStdComplex) {
  std::mt19937_64 rng(GetParam() + 808);
  std::vector<double> num;
  std::vector<double> den;
  // Every (a, b) / (c, d) over the edge values: equal magnitudes, zero
  // and real divisors, and each scaling and NaN-recovery branch.
  const std::vector<double> edge = division_edge_values();
  std::uniform_int_distribution<std::size_t> pick(0, edge.size() - 1);
  for (const double a : edge) {
    for (const double c : edge) {
      for (int rep = 0; rep < 8; ++rep) {
        num.insert(num.end(), {a, edge[pick(rng)]});
        den.insert(den.end(), {c, edge[pick(rng)]});
        num.insert(num.end(), {edge[pick(rng)], a});
        den.insert(den.end(), {edge[pick(rng)], c});
      }
    }
  }
  // Random values over the whole exponent range, and ordinary ones.
  std::uniform_real_distribution<double> mant(-2.0, 2.0);
  std::uniform_int_distribution<int> expo(-1074, 1023);
  for (int i = 0; i < 20000; ++i) {
    for (int part = 0; part < 2; ++part) {
      num.push_back(std::ldexp(mant(rng), i % 2 == 0 ? expo(rng) : 0));
      den.push_back(std::ldexp(mant(rng), i % 2 == 0 ? expo(rng) : 0));
    }
  }
  const std::size_t n = num.size() / 2;
  std::vector<double> want(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::complex<double> q =
        std::complex<double>(num[2 * i], num[2 * i + 1]) /
        std::complex<double>(den[2 * i], den[2 * i + 1]);
    want[2 * i] = q.real();
    want[2 * i + 1] = q.imag();
  }
  for (const Kernels* k : runnable_tables()) {
    // Whole run, and short runs through every tail length.
    for (const std::size_t len : {n, std::size_t{1}, std::size_t{3},
                                  std::size_t{13}}) {
      std::vector<double> got(2 * len);
      k->cdiv(num.data(), den.data(), len, got.data());
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(std::memcmp(&got[2 * i], &want[2 * i], 2 * sizeof(double)),
                  0)
            << k->name << " (" << num[2 * i] << ", " << num[2 * i + 1]
            << ") / (" << den[2 * i] << ", " << den[2 * i + 1] << ") gave ("
            << got[2 * i] << ", " << got[2 * i + 1] << ") want ("
            << want[2 * i] << ", " << want[2 * i + 1] << ")";
      }
    }
  }
}

/// One complex channel entry: continuous, a small Gaussian integer (exact
/// zeros, and |z|^2 ties the pivot search must break as Lu does), or
/// continuous with a one-in-five chance of an exact zero.
cplx zf_entry(std::mt19937_64& rng, int mode) {
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::uniform_int_distribution<int> gi(-2, 2);
  std::uniform_int_distribution<int> fifth(0, 4);
  switch (mode) {
    case 0:
      return {u(rng), u(rng)};
    case 1:
      return {static_cast<double>(gi(rng)), static_cast<double>(gi(rng))};
    default:
      return fifth(rng) == 0 ? cplx{} : cplx{u(rng), u(rng)};
  }
}

/// Runs zf_pinv on table `k` over the per-subcarrier matrices `a`; `w`
/// receives the weights.
bool run_zf_pinv(const Kernels& k, const std::vector<CMatrix>& a,
                 double ridge, std::vector<CMatrix>& w) {
  const std::size_t rows = a[0].rows();
  const std::size_t cols = a[0].cols();
  std::vector<const double*> in;
  std::vector<double*> out;
  w.assign(a.size(), CMatrix(cols, rows));
  for (std::size_t s = 0; s < a.size(); ++s) {
    in.push_back(reinterpret_cast<const double*>(&a[s](0, 0)));
    out.push_back(reinterpret_cast<double*>(&w[s](0, 0)));
  }
  advec work(zf_pinv_work_size(rows, cols));
  return k.zf_pinv(in.data(), rows, cols, a.size(), ridge, out.data(),
                   work.data());
}

/// Runs zf_pinv on table `k` and checks it against pinv_into subcarrier
/// by subcarrier: the same verdict, and on success every W entry bit for
/// bit.
void expect_zf_pinv_matches(const Kernels& k, const std::vector<CMatrix>& a,
                            double ridge, const std::string& what) {
  const std::size_t n_sc = a.size();
  PinvScratch scratch;
  std::vector<CMatrix> want(n_sc);
  bool want_ok = true;
  for (std::size_t s = 0; s < n_sc && want_ok; ++s) {
    want_ok = pinv_into(a[s], ridge, scratch, want[s]);
  }
  std::vector<CMatrix> w;
  const bool ok = run_zf_pinv(k, a, ridge, w);
  ASSERT_EQ(ok, want_ok) << k.name << " " << what;
  if (!ok) return;
  for (std::size_t s = 0; s < n_sc; ++s) {
    for (std::size_t r = 0; r < want[s].rows(); ++r) {
      for (std::size_t c = 0; c < want[s].cols(); ++c) {
        ASSERT_EQ(std::memcmp(&w[s](r, c), &want[s](r, c), sizeof(cplx)), 0)
            << k.name << " " << what << " subcarrier " << s << " W(" << r
            << ", " << c << ") = " << w[s](r, c) << " want "
            << want[s](r, c);
      }
    }
  }
}

TEST_P(SimdParity, ZfPinvMatchesPinvIntoPerSubcarrier) {
  std::mt19937_64 rng(GetParam() + 909);
  // 52 is the used-subcarrier count (not a multiple of 8); 1 and 3 are
  // shorter than the AVX2 and AVX-512 blocks; 13 leaves a tail on all.
  for (const std::size_t n_sc : {52u, 1u, 3u, 13u}) {
    for (std::size_t rows = 1; rows <= 12; ++rows) {
      for (const std::size_t cols : {rows, rows + 1, rows + 3}) {
        for (int mode = 0; mode < 3; ++mode) {
          std::vector<CMatrix> a(n_sc, CMatrix(rows, cols));
          for (CMatrix& m : a) {
            for (std::size_t r = 0; r < rows; ++r) {
              for (std::size_t c = 0; c < cols; ++c) {
                m(r, c) = zf_entry(rng, mode);
              }
            }
          }
          for (const double ridge : {0.0, 0.37}) {
            const std::string what = "n_sc=" + std::to_string(n_sc) +
                                     " rows=" + std::to_string(rows) +
                                     " cols=" + std::to_string(cols) +
                                     " mode=" + std::to_string(mode) +
                                     " ridge=" + std::to_string(ridge);
            for (const Kernels* k : runnable_tables()) {
              expect_zf_pinv_matches(*k, a, ridge, what);
            }
          }
        }
      }
    }
  }
}

TEST_P(SimdParity, ZfPinvFailsOnASingularSubcarrierInAnyBlock) {
  std::mt19937_64 rng(GetParam() + 1010);
  constexpr std::size_t kSc = 52;
  for (const std::size_t rows : {2u, 4u, 7u}) {
    const std::size_t cols = rows + 1;
    std::vector<CMatrix> good(kSc, CMatrix(rows, cols));
    for (CMatrix& m : good) {
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) m(r, c) = zf_entry(rng, 0);
      }
    }
    for (const Kernels* k : runnable_tables()) {
      expect_zf_pinv_matches(*k, good, 0.0, "well conditioned");
    }
    // First block, middle block, and the tail every backend reruns.
    for (const std::size_t bad : {0u, 1u, 21u, 50u, 51u}) {
      std::vector<CMatrix> a = good;
      // Row 1 a copy of row 0 makes A A^H exactly singular (rows == 1:
      // an all-zero row).
      for (std::size_t c = 0; c < cols; ++c) {
        a[bad](rows - 1, c) = rows > 1 ? a[bad](0, c) : cplx{};
      }
      for (const Kernels* k : runnable_tables()) {
        std::vector<CMatrix> w;
        EXPECT_FALSE(run_zf_pinv(*k, a, 0.0, w))
            << k->name << " rows=" << rows << " singular subcarrier " << bad;
        expect_zf_pinv_matches(*k, a, 0.0,
                               "singular at " + std::to_string(bad));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdParity,
                         ::testing::Values(1u, 20260807u, 0xDEADBEEFu));

}  // namespace
}  // namespace jmb::simd
