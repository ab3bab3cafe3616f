#include "linalg/lu.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "simd/kernels.h"

namespace jmb {

Lu::Lu(const CMatrix& a) { factorize(a); }

bool Lu::factorize(const CMatrix& a) {
  if (!a.is_square()) throw std::invalid_argument("Lu: matrix must be square");
  lu_ = a;
  const std::size_t n = a.rows();
  piv_.resize(n);
  for (std::size_t i = 0; i < n; ++i) piv_[i] = i;

  // Pivot on squared magnitudes: std::norm is one mul+add where a
  // correctly-rounded cabs() is a library call, and |z|^2 ranks
  // candidates identically to |z| except on exact 1-ulp ties. The
  // singularity test compares squared quantities for the same reason.
  double scale2 = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      scale2 = std::max(scale2, std::norm(lu_(r, c)));
    }
  }
  // The threshold is shared with the batched simd::Kernels::zf_pinv.
  const double thr2 =
      simd::kLuPivotEps * simd::kLuPivotEps * std::max(scale2, 1e-300);
  ok_ = true;
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: find the largest magnitude in column k at/below row k.
    std::size_t p = k;
    double best = std::norm(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = std::norm(lu_(r, k));
      if (m > best) {
        best = m;
        p = r;
      }
    }
    if (best <= thr2) {
      ok_ = false;
      return false;
    }
    if (p != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(p, c), lu_(k, c));
      std::swap(piv_[p], piv_[k]);
    }
    // Eliminate below the pivot. The dispatched caxpy_sub kernel runs
    // row[c] -= f * krow[c] in the same operation order as
    // `lu_(r, c) -= f * lu_(k, c)` per lane (rows r and k are distinct),
    // batched across the independent trailing columns — results are
    // bitwise unchanged.
    const cplx inv_pivot = 1.0 / lu_(k, k);
    const simd::Kernels& kern = simd::active_kernels();
    const double* const krow = reinterpret_cast<const double*>(&lu_(k, 0));
    for (std::size_t r = k + 1; r < n; ++r) {
      const cplx f = lu_(r, k) * inv_pivot;
      lu_(r, k) = f;
      double* const rrow = reinterpret_cast<double*>(&lu_(r, 0));
      kern.caxpy_sub(rrow, krow, f.real(), f.imag(), k + 1, n);
    }
  }
  return ok_;
}

void Lu::substitute(std::span<const cplx> b, std::span<cplx> x,
                    LuScratch& scratch) const {
  const std::size_t n = lu_.rows();
  // Apply permutation, then forward substitution (L has unit diagonal).
  scratch.y.resize(n);
  cvec& y = scratch.y;
  // Both substitution sweeps accumulate `acc -= lu_(i, j) * rhs[j]` over
  // raw double pairs in the original order — bitwise-identical results,
  // without bouncing the accumulator through memory each term.
  double* const __restrict yy = reinterpret_cast<double*>(y.data());
  for (std::size_t i = 0; i < n; ++i) {
    const cplx b0 = b[piv_[i]];
    double accr = b0.real();
    double acci = b0.imag();
    const double* const __restrict lrow =
        reinterpret_cast<const double*>(&lu_(i, 0));
    for (std::size_t j = 0; j < i; ++j) {
      const double lr = lrow[2 * j];
      const double li = lrow[2 * j + 1];
      const double vr = yy[2 * j];
      const double vi = yy[2 * j + 1];
      accr -= lr * vr - li * vi;
      acci -= lr * vi + li * vr;
    }
    yy[2 * i] = accr;
    yy[2 * i + 1] = acci;
  }
  // Back substitution with U. All reads/writes of x go through the one
  // restrict pointer (it is both read and written across iterations).
  double* const __restrict xx = reinterpret_cast<double*>(x.data());
  for (std::size_t ii = n; ii-- > 0;) {
    double accr = yy[2 * ii];
    double acci = yy[2 * ii + 1];
    const double* const __restrict urow =
        reinterpret_cast<const double*>(&lu_(ii, 0));
    for (std::size_t j = ii + 1; j < n; ++j) {
      const double ur = urow[2 * j];
      const double ui = urow[2 * j + 1];
      const double vr = xx[2 * j];
      const double vi = xx[2 * j + 1];
      accr -= ur * vr - ui * vi;
      acci -= ur * vi + ui * vr;
    }
    const cplx q = cplx{accr, acci} / lu_(ii, ii);
    xx[2 * ii] = q.real();
    xx[2 * ii + 1] = q.imag();
  }
}

void Lu::inverse_into(CMatrix& out, LuScratch& scratch) const {
  if (!ok_) throw std::logic_error("Lu::solve on singular matrix");
  const std::size_t n = lu_.rows();
  out.resize(n, n);
  scratch.b.resize(n);
  scratch.x.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    // Column c of the identity as the right-hand side — the same values
    // solve(CMatrix::identity(n)) feeds column by column.
    std::fill(scratch.b.begin(), scratch.b.end(), cplx{});
    scratch.b[c] = cplx{1.0, 0.0};
    substitute(scratch.b, scratch.x, scratch);
    for (std::size_t r = 0; r < n; ++r) out(r, c) = scratch.x[r];
  }
}

cvec Lu::solve(const cvec& b) const {
  if (!ok_) throw std::logic_error("Lu::solve on singular matrix");
  const std::size_t n = lu_.rows();
  if (b.size() != n) throw std::invalid_argument("Lu::solve: size mismatch");
  cvec x(n);
  LuScratch scratch;
  substitute(b, x, scratch);
  return x;
}

CMatrix Lu::solve(const CMatrix& b) const {
  if (b.rows() != lu_.rows()) {
    throw std::invalid_argument("Lu::solve: row mismatch");
  }
  CMatrix x(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) x.set_col(c, solve(b.col(c)));
  return x;
}

CMatrix Lu::inverse() const { return solve(CMatrix::identity(lu_.rows())); }

std::optional<CMatrix> inverse(const CMatrix& a) {
  const Lu lu(a);
  if (!lu.ok()) return std::nullopt;
  return lu.inverse();
}

}  // namespace jmb
