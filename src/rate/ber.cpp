#include "rate/ber.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "simd/kernels.h"

namespace jmb::rate {

BerCurve ber_curve(phy::Modulation m) {
  using phy::Modulation;
  // M-QAM: scale = (4/log2 M)(1 − 1/√M), per_snr = (M − 1)/3.
  switch (m) {
    case Modulation::kBpsk: return {1.0, 0.5};
    case Modulation::kQpsk: return {1.0, 1.0};
    case Modulation::kQam16: return {0.75, 5.0};
    case Modulation::kQam64: return {7.0 / 12.0, 21.0};
  }
  throw std::logic_error("ber_curve: bad modulation");
}

double q_function(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

double ber(phy::Modulation m, double snr) {
  if (snr < 0) throw std::invalid_argument("ber: negative SNR");
  // snr/0.5 is 2·snr exactly, so BPSK's curve is Q(√(2·snr)).
  const BerCurve c = ber_curve(m);
  return c.scale * q_function(std::sqrt(snr / c.per_snr));
}

double snr_for_ber(phy::Modulation m, double target_ber) {
  // Written so that a NaN target fails the check too.
  if (!(target_ber > 0.0 && target_ber < 0.5)) {
    throw std::invalid_argument("snr_for_ber: target must be in (0, 0.5)");
  }
  double lo = 1e-6, hi = 1e9;
  for (int it = 0; it < 200; ++it) {
    const double mid = std::sqrt(lo * hi);  // geometric bisection
    // An iteration that would move neither end is a fixed point: every
    // later one recomputes the same mid and takes the same branch, so
    // stopping there (after ~60) returns exactly what 200 iterations would.
    if (ber(m, mid) > target_ber) {
      if (mid == lo) break;
      lo = mid;
    } else {
      if (mid == hi) break;
      hi = mid;
    }
  }
  return std::sqrt(lo * hi);
}

namespace {

/// Acklam's rational approximation of the standard normal quantile
/// Phi^-1(p) on the lower half, 0 < p <= 0.5 (relative error < 1.15e-9).
double normal_quantile_lower(double p) {
  constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                          -2.759285104469687e+02, 1.383577518672690e+02,
                          -3.066479806614716e+01, 2.506628277459239e+00};
  constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                          -1.556989798598866e+02, 6.680131188771972e+01,
                          -1.328068155288572e+01};
  constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                          -2.400758277161838e+00, -2.549732539343734e+00,
                          4.374664141464968e+00,  2.938163982698783e+00};
  constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                          2.445134137142996e+00, 3.754408661907416e+00};
  if (p < 0.02425) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

}  // namespace

double snr_for_ber_estimate(phy::Modulation m, double target_ber) {
  const BerCurve c = ber_curve(m);
  const double p = target_ber / c.scale;
  // Written so that a NaN target fails the check too.
  if (!(p > 0.0 && p < 0.5)) return std::numeric_limits<double>::quiet_NaN();
  const double y = normal_quantile_lower(p);  // = -Q^-1(p)
  return y * y * c.per_snr;
}

namespace {

using simd::kErfcDegree;
using simd::kErfcSegments;
using simd::kErfcSegmentsPerUnit;
using simd::kErfcStride;
using Ld = long double;

constexpr Ld kTwoOverSqrtPi = 1.12837916709551257389615890312154517L;

/// H_{kErfcDegree}'s coefficients by the recursion
/// H_{n+1} = 2y·H_n − 2n·H_{n−1}; entry i multiplies y^i.
std::array<Ld, kErfcDegree + 1> hermite_top() {
  std::array<Ld, kErfcDegree + 1> prev{}, cur{};
  cur[0] = 1;  // H_0
  for (std::size_t n = 0; n < kErfcDegree; ++n) {
    std::array<Ld, kErfcDegree + 1> next{};
    for (std::size_t i = 0; i < kErfcDegree; ++i) {
      next[i + 1] += 2 * cur[i];
    }
    for (std::size_t i = 0; i <= kErfcDegree; ++i) {
      next[i] -= 2 * static_cast<Ld>(n) * prev[i];
    }
    prev = cur;
    cur = next;
  }
  return cur;
}

/// A bound on piece j's relative Lagrange remainder
///   |erfc⁽ᴰ⁺¹⁾(ξ)|/(D+1)! · |y − y₀|^{D+1} / erfc(y),  D = kErfcDegree,
/// over y in the piece and ξ between y and its centre y₀:
/// |erfc⁽ᴰ⁺¹⁾(ξ)| = (2/√π)|H_D(ξ)|e^{−ξ²} with |H_D(ξ)| ≤ Σ|cᵢ|ξⁱ at the
/// piece's right end, |y − y₀| ≤ h/2, and e^{−ξ²}/erfc(y) at most
/// e^{−y₀²}/erfc(right end) right of the centre and
/// e^{−left²}/erfc(y₀) left of it.
Ld erfc_remainder_bound(std::size_t j) {
  const std::array<Ld, kErfcDegree + 1> hd = hermite_top();
  const Ld h = 1.0L / kErfcSegmentsPerUnit;
  const Ld left = static_cast<Ld>(j) * h;
  const Ld right = left + h;
  const Ld mid = left + h / 2;
  Ld hermite = 0, power = 1;
  for (const Ld c : hd) {
    hermite += std::fabs(c) * power;
    power *= right;
  }
  const Ld ratio = std::max(std::exp(-mid * mid) / std::erfc(right),
                            std::exp(-left * left) / std::erfc(mid));
  Ld taylor = 1;  // (h/2)^{D+1}/(D+1)!
  for (std::size_t n = 1; n <= kErfcDegree + 1; ++n) {
    taylor *= h / 2 / static_cast<Ld>(n);
  }
  return kTwoOverSqrtPi * hermite * ratio * taylor;
}

std::array<double, kErfcStride * kErfcSegments> build_erfc_table() {
  std::array<double, kErfcStride * kErfcSegments> table{};
  const Ld h = 1.0L / kErfcSegmentsPerUnit;
  for (std::size_t j = 0; j < kErfcSegments; ++j) {
    if (!(erfc_remainder_bound(j) <= kErfcTableRemainder)) {
      throw std::logic_error("erfc_table: piece " + std::to_string(j) +
                             " exceeds its remainder bound");
    }
    const Ld y0 = (static_cast<Ld>(j) + 0.5L) * h;
    // H_0 .. H_{D−1} at y0.
    std::array<Ld, kErfcDegree> hermite{};
    hermite[0] = 1;
    if (kErfcDegree > 1) hermite[1] = 2 * y0;
    for (std::size_t n = 1; n + 1 < kErfcDegree; ++n) {
      hermite[n + 1] = 2 * y0 * hermite[n] - 2 * static_cast<Ld>(n) *
                                                 hermite[n - 1];
    }
    const Ld gauss = kTwoOverSqrtPi * std::exp(-y0 * y0);
    double* const piece = table.data() + kErfcStride * j;
    piece[0] = static_cast<double>(std::erfc(y0));
    // Coefficient of u^n, u = (y − y0)/h: erfc⁽ⁿ⁾(y0)·hⁿ/n!.
    Ld scale = 1;  // hⁿ/n!
    for (std::size_t n = 1; n <= kErfcDegree; ++n) {
      scale *= h / static_cast<Ld>(n);
      const Ld deriv = (n % 2 ? -gauss : gauss) * hermite[n - 1];
      piece[n] = static_cast<double>(deriv * scale);
    }
  }
  return table;
}

}  // namespace

const double* erfc_table() {
  static const std::array<double, kErfcStride * kErfcSegments> table =
      build_erfc_table();
  return table.data();
}

}  // namespace jmb::rate
