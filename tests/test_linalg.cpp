// Unit and property tests for the complex linear-algebra substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dsp/rng.h"
#include "linalg/cmatrix.h"
#include "linalg/lu.h"
#include "linalg/pinv.h"

namespace jmb {
namespace {

constexpr double kTol = 1e-9;

CMatrix random_matrix(Rng& rng, std::size_t r, std::size_t c) {
  CMatrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.cgaussian();
  return m;
}

CMatrix diagonal(const cvec& d) {
  CMatrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

double frobenius_norm(const CMatrix& a) {
  double acc = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) acc += a.row_power(r);
  return std::sqrt(acc);
}

/// Max |a_ij - b_ij| of two matrices of one shape.
double max_abs_diff(const CMatrix& a, const CMatrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double m = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      m = std::max(m, std::abs(a(r, c) - b(r, c)));
  return m;
}

TEST(CMatrixTest, ConstructionAndAccess) {
  CMatrix m{{cplx{1, 0}, cplx{2, 0}}, {cplx{3, 0}, cplx{4, 5}}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_TRUE(m.is_square());
  EXPECT_EQ(m(1, 1), (cplx{4, 5}));
  EXPECT_THROW((CMatrix{{cplx{1, 0}}, {cplx{1, 0}, cplx{2, 0}}}),
               std::invalid_argument);
}

TEST(CMatrixTest, IdentityAndDiagonal) {
  const CMatrix i3 = CMatrix::identity(3);
  EXPECT_NEAR(frobenius_norm(i3), std::sqrt(3.0), kTol);
  EXPECT_EQ(i3(1, 1), (cplx{1, 0}));
  EXPECT_EQ(i3(1, 2), (cplx{0, 0}));
  const CMatrix d = diagonal({cplx{1, 0}, cplx{0, 2}});
  EXPECT_EQ(d(1, 1), (cplx{0, 2}));
  EXPECT_EQ(d(0, 1), (cplx{0, 0}));
}

TEST(CMatrixTest, HermitianTransposeConj) {
  const CMatrix m{{cplx{1, 2}, cplx{3, 4}}, {cplx{5, 6}, cplx{7, 8}}};
  const CMatrix h = m.hermitian();
  EXPECT_EQ(h(0, 1), (cplx{5, -6}));
  EXPECT_EQ(h(0, 0), (cplx{1, -2}));
  // (A^H)^H == A
  EXPECT_NEAR(max_abs_diff(h.hermitian(), m), 0.0, kTol);
}

TEST(CMatrixTest, ArithmeticAndShapeChecks) {
  Rng rng(1);
  const CMatrix a = random_matrix(rng, 3, 3);
  const CMatrix c = random_matrix(rng, 2, 3);
  EXPECT_NEAR(max_abs_diff(a * CMatrix::identity(3), a), 0.0, kTol);
  // (2x3)(3x3)=2x3, (2x3)(2x3) bad
  EXPECT_THROW(c * a * c, std::invalid_argument);
  EXPECT_THROW(a * cvec(2), std::invalid_argument);
}

TEST(CMatrixTest, MatrixProductAgainstHand) {
  const CMatrix a{{cplx{1, 0}, cplx{2, 0}}, {cplx{0, 1}, cplx{0, 0}}};
  const CMatrix b{{cplx{3, 0}, cplx{0, 0}}, {cplx{1, 0}, cplx{1, 0}}};
  const CMatrix p = a * b;
  EXPECT_EQ(p(0, 0), (cplx{5, 0}));
  EXPECT_EQ(p(0, 1), (cplx{2, 0}));
  EXPECT_EQ(p(1, 0), (cplx{0, 3}));
  EXPECT_EQ(p(1, 1), (cplx{0, 0}));
}

TEST(CMatrixTest, MatVecAndRowColHelpers) {
  Rng rng(2);
  const CMatrix a = random_matrix(rng, 4, 3);
  const cvec v = rng.cgaussian_vec(3);
  const cvec y = a * v;
  ASSERT_EQ(y.size(), 4u);
  // y == A*v computed through column extraction.
  for (std::size_t r = 0; r < 4; ++r) {
    cplx acc{};
    for (std::size_t c = 0; c < 3; ++c) acc += a(r, c) * v[c];
    EXPECT_NEAR(std::abs(y[r] - acc), 0.0, kTol);
  }
  const cvec row1 = a.row(1);
  const cvec col2 = a.col(2);
  EXPECT_EQ(row1.size(), 3u);
  EXPECT_EQ(col2.size(), 4u);
  EXPECT_EQ(row1[2], a(1, 2));
  EXPECT_EQ(col2[3], a(3, 2));
  CMatrix b(4, 3);
  b.set_col(2, col2);
  EXPECT_EQ(b(1, 0), (cplx{0, 0}));
  EXPECT_EQ(b(0, 2), a(0, 2));
}

TEST(CMatrixTest, RowColPower) {
  const CMatrix m{{cplx{3, 4}, cplx{0, 0}}, {cplx{1, 0}, cplx{2, 0}}};
  EXPECT_NEAR(m.row_power(0), 25.0, kTol);
  EXPECT_NEAR(m.row_power(1), 5.0, kTol);
}

TEST(LuTest, SolvesKnownSystem) {
  const CMatrix a{{cplx{2, 0}, cplx{1, 0}}, {cplx{1, 0}, cplx{3, 0}}};
  const cvec b{cplx{5, 0}, cplx{10, 0}};
  const Lu lu(a);
  ASSERT_TRUE(lu.ok());
  const cvec x = lu.solve(b);
  EXPECT_NEAR(std::abs(x[0] - cplx{1, 0}), 0.0, kTol);
  EXPECT_NEAR(std::abs(x[1] - cplx{3, 0}), 0.0, kTol);
}

TEST(LuTest, DetectsSingular) {
  const CMatrix a{{cplx{1, 0}, cplx{2, 0}}, {cplx{2, 0}, cplx{4, 0}}};
  const Lu lu(a);
  EXPECT_FALSE(lu.ok());
  EXPECT_THROW(lu.solve(cvec{cplx{1, 0}, cplx{1, 0}}), std::logic_error);
  EXPECT_FALSE(inverse(a).has_value());
}

TEST(LuTest, RejectsNonSquare) {
  Rng rng(3);
  EXPECT_THROW(Lu(random_matrix(rng, 2, 3)), std::invalid_argument);
}

// Property: A * A^{-1} == I for random well-conditioned matrices of many
// sizes (this is the exact operation zero-forcing performs per subcarrier).
class LuInverseProperty : public ::testing::TestWithParam<int> {};

TEST_P(LuInverseProperty, InverseTimesSelfIsIdentity) {
  const int n = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(n));
  for (int trial = 0; trial < 20; ++trial) {
    const CMatrix a = random_matrix(rng, n, n);
    const auto inv = inverse(a);
    ASSERT_TRUE(inv.has_value());
    const CMatrix eye = a * (*inv);
    EXPECT_NEAR(max_abs_diff(eye, CMatrix::identity(n)), 0.0, 1e-8)
        << "n=" << n << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuInverseProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 10, 12, 16, 20));

TEST(LuTest, SolveMatrixRhs) {
  Rng rng(5);
  const CMatrix a = random_matrix(rng, 5, 5);
  const CMatrix b = random_matrix(rng, 5, 3);
  const Lu lu(a);
  ASSERT_TRUE(lu.ok());
  const CMatrix x = lu.solve(b);
  EXPECT_NEAR(max_abs_diff(a * x, b), 0.0, 1e-8);
}

TEST(PinvTest, SquareMatchesInverse) {
  Rng rng(6);
  const CMatrix a = random_matrix(rng, 4, 4);
  const auto p = pinv(a);
  const auto inv_a = inverse(a);
  ASSERT_TRUE(p && inv_a);
  EXPECT_NEAR(max_abs_diff(*p, *inv_a), 0.0, 1e-7);
}

TEST(PinvTest, FatMatrixRightInverse) {
  // Downlink case: fewer client antennas (rows) than AP antennas (cols).
  Rng rng(7);
  const CMatrix h = random_matrix(rng, 3, 6);
  const auto p = pinv(h);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->rows(), 6u);
  EXPECT_EQ(p->cols(), 3u);
  EXPECT_NEAR(max_abs_diff(h * (*p), CMatrix::identity(3)), 0.0, 1e-8);
}

TEST(PinvTest, TallMatrixLeftInverse) {
  Rng rng(8);
  const CMatrix a = random_matrix(rng, 6, 3);
  const auto p = pinv(a);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(max_abs_diff((*p) * a, CMatrix::identity(3)), 0.0, 1e-8);
}

TEST(PinvTest, RidgeRegularizesRankDeficient) {
  // Rank-1 fat matrix: exact pinv of the Gram is singular, ridge versions
  // must still return something finite.
  CMatrix a(2, 4);
  for (std::size_t c = 0; c < 4; ++c) {
    a(0, c) = cplx{1.0, 0.0};
    a(1, c) = cplx{2.0, 0.0};
  }
  EXPECT_FALSE(pinv(a, 0.0).has_value());
  const auto p = pinv(a, 1e-6);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(std::isfinite(frobenius_norm(*p)));
}

TEST(SingularValues, DiagonalMatrixExact) {
  const CMatrix d = diagonal({cplx{5, 0}, cplx{0, 2}, cplx{1, 0}});
  EXPECT_NEAR(largest_singular_value(d), 5.0, 1e-6);
  EXPECT_NEAR(smallest_singular_value(d), 1.0, 1e-6);
  EXPECT_NEAR(condition_number(d), 5.0, 1e-5);
}

TEST(SingularValues, UnitaryHasConditionOne) {
  // DFT-like unitary 2x2.
  const double s = 1.0 / std::sqrt(2.0);
  const CMatrix u{{cplx{s, 0}, cplx{s, 0}}, {cplx{s, 0}, cplx{-s, 0}}};
  EXPECT_NEAR(condition_number(u), 1.0, 1e-6);
}

TEST(SingularValues, SingularMatrixInfiniteCondition) {
  const CMatrix a{{cplx{1, 0}, cplx{1, 0}}, {cplx{1, 0}, cplx{1, 0}}};
  EXPECT_EQ(smallest_singular_value(a), 0.0);
  EXPECT_TRUE(std::isinf(condition_number(a)));
}

TEST(SingularValues, BoundsFrobeniusNorm) {
  Rng rng(9);
  const CMatrix a = random_matrix(rng, 5, 5);
  const double smax = largest_singular_value(a);
  EXPECT_LE(smax, frobenius_norm(a) + 1e-9);
  EXPECT_GE(smax * std::sqrt(5.0), frobenius_norm(a) - 1e-9);
}

// ---- Into-kernel parity: the allocating APIs wrap the _into kernels, so
// the results must be bitwise equal, and warm buffers must be reusable.

void expect_bitwise_equal(const CMatrix& a, const CMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_EQ(a(r, c).real(), b(r, c).real()) << r << "," << c;
      EXPECT_EQ(a(r, c).imag(), b(r, c).imag()) << r << "," << c;
    }
  }
}

TEST(IntoKernels, MultiplyIntoBitwiseMatchesOperator) {
  Rng rng(31);
  const CMatrix a = random_matrix(rng, 3, 5);
  const CMatrix b = random_matrix(rng, 5, 4);
  CMatrix out;
  multiply_into(a, b, out);
  expect_bitwise_equal(a * b, out);
  // Reuse with a different shape: resize keeps capacity, zeroes content.
  const CMatrix c = random_matrix(rng, 2, 2);
  const CMatrix d = random_matrix(rng, 2, 2);
  multiply_into(c, d, out);
  expect_bitwise_equal(c * d, out);
}

TEST(IntoKernels, MatrixVectorMultiplyIntoBitwiseMatchesOperator) {
  Rng rng(37);
  const CMatrix a = random_matrix(rng, 4, 3);
  cvec v(3);
  for (cplx& x : v) x = rng.cgaussian();
  cvec out(4);
  multiply_into(a, v, out);
  const cvec ref = a * v;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].real(), out[i].real());
    EXPECT_EQ(ref[i].imag(), out[i].imag());
  }
}

TEST(IntoKernels, HermitianIntoBitwiseMatchesAllocating) {
  Rng rng(41);
  const CMatrix a = random_matrix(rng, 3, 4);
  CMatrix out;
  hermitian_into(a, out);
  expect_bitwise_equal(a.hermitian(), out);
}

TEST(IntoKernels, LuFactorizeSolveIntoMatchesLegacySolve) {
  Rng rng(43);
  const CMatrix a = random_matrix(rng, 4, 4);
  cvec b(4);
  for (cplx& x : b) x = rng.cgaussian();

  const Lu legacy(a);
  ASSERT_TRUE(legacy.ok());
  const cvec x_legacy = legacy.solve(b);

  Lu reusable;
  LuScratch scratch;
  // Factorize twice (second over a different matrix, then back) to prove
  // the factorization state fully resets between uses.
  ASSERT_TRUE(reusable.factorize(random_matrix(rng, 3, 3)));
  ASSERT_TRUE(reusable.factorize(a));
  const cvec x_reused = reusable.solve(b);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(x_legacy[i].real(), x_reused[i].real());
    EXPECT_EQ(x_legacy[i].imag(), x_reused[i].imag());
  }

  CMatrix inv_into;
  reusable.inverse_into(inv_into, scratch);
  const auto inv_legacy = inverse(a);
  ASSERT_TRUE(inv_legacy.has_value());
  expect_bitwise_equal(*inv_legacy, inv_into);
}

TEST(IntoKernels, PinvIntoBitwiseMatchesPinvAndReusesScratch) {
  Rng rng(47);
  PinvScratch scratch;
  CMatrix out;
  for (const auto& [r, c] : {std::pair<std::size_t, std::size_t>{2, 4},
                            {4, 2},
                            {3, 3}}) {
    const CMatrix a = random_matrix(rng, r, c);
    const auto ref = pinv(a);
    ASSERT_TRUE(ref.has_value());
    ASSERT_TRUE(pinv_into(a, 0.0, scratch, out));
    expect_bitwise_equal(*ref, out);
  }
  // Singular input reports failure both ways.
  const CMatrix s{{cplx{1, 0}, cplx{1, 0}}, {cplx{1, 0}, cplx{1, 0}}};
  EXPECT_FALSE(pinv(s).has_value());
  EXPECT_FALSE(pinv_into(s, 0.0, scratch, out));
}

}  // namespace
}  // namespace jmb
