#include "linalg/cmatrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "simd/kernels.h"

namespace jmb {

CMatrix::CMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols) {}

CMatrix::CMatrix(std::initializer_list<std::initializer_list<cplx>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("CMatrix: ragged initializer");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

CMatrix CMatrix::identity(std::size_t n) {
  CMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void CMatrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, cplx{});
}

CMatrix CMatrix::hermitian() const {
  CMatrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c)
      out(c, r) = std::conj((*this)(r, c));
  return out;
}

CMatrix CMatrix::operator*(const CMatrix& rhs) const {
  if (cols_ != rhs.rows_) {
    throw std::invalid_argument("CMatrix*: inner dimension mismatch");
  }
  CMatrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const cplx a = (*this)(r, k);
      if (a == cplx{}) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) {
        out(r, c) += a * rhs(k, c);
      }
    }
  }
  return out;
}

cvec CMatrix::operator*(const cvec& v) const {
  if (cols_ != v.size()) {
    throw std::invalid_argument("CMatrix*vec: dimension mismatch");
  }
  cvec out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    cplx acc{};
    for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * v[c];
    out[r] = acc;
  }
  return out;
}

double CMatrix::max_abs() const {
  double m = 0.0;
  for (const cplx& v : data_) m = std::max(m, std::abs(v));
  return m;
}

double CMatrix::row_power(std::size_t r) const {
  double acc = 0.0;
  for (std::size_t c = 0; c < cols_; ++c) acc += std::norm((*this)(r, c));
  return acc;
}

cvec CMatrix::row(std::size_t r) const {
  cvec out(cols_);
  for (std::size_t c = 0; c < cols_; ++c) out[c] = (*this)(r, c);
  return out;
}

cvec CMatrix::col(std::size_t c) const {
  cvec out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void CMatrix::set_col(std::size_t c, const cvec& v) {
  if (v.size() != rows_) throw std::invalid_argument("set_col: size mismatch");
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

void multiply_into(const CMatrix& a, const CMatrix& b, CMatrix& out) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("multiply_into: inner dimension mismatch");
  }
  out.resize(a.rows(), b.cols());
  // Same accumulation order (including the zero-skip) as
  // CMatrix::operator*, so the rounding is identical — the dispatched
  // caxpy_acc kernel runs the row update out[c] += v*b[c] in the scalar
  // operation order per lane, batched across the independent columns.
  // `out` must not alias a or b (resize() already forbids that for every
  // existing caller).
  const simd::Kernels& kern = simd::active_kernels();
  const std::size_t bc = b.cols();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double* const orow = reinterpret_cast<double*>(&out(r, 0));
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const cplx v = a(r, k);
      if (v == cplx{}) continue;
      const double* const brow = reinterpret_cast<const double*>(&b(k, 0));
      kern.caxpy_acc(orow, brow, v.real(), v.imag(), bc);
    }
  }
}

void multiply_into(const CMatrix& a, std::span<const cplx> v,
                   std::span<cplx> out) {
  if (a.cols() != v.size() || a.rows() != out.size()) {
    throw std::invalid_argument("multiply_into: vector dimension mismatch");
  }
  // acc += a(r, c) * v[c] in the same order as the allocating operator*,
  // batched across the independent output rows by the dispatched kernel
  // — each lane keeps the scalar per-row accumulation order, so results
  // are bitwise identical.
  if (a.rows() == 0) return;
  if (a.cols() == 0) {
    std::fill(out.begin(), out.end(), cplx{});
    return;
  }
  simd::active_kernels().cmatvec(reinterpret_cast<const double*>(&a(0, 0)),
                                 a.rows(), a.cols(),
                                 reinterpret_cast<const double*>(v.data()),
                                 reinterpret_cast<double*>(out.data()));
}

void hermitian_into(const CMatrix& a, CMatrix& out) {
  out.resize(a.cols(), a.rows());
  if (a.rows() == 0 || a.cols() == 0) return;
  // Pure data movement + sign flip; the kernel batches down each output
  // row (a strided column of `a`).
  simd::active_kernels().hermitian(reinterpret_cast<const double*>(&a(0, 0)),
                                   a.rows(), a.cols(),
                                   reinterpret_cast<double*>(&out(0, 0)));
}

cplx row_hdot(const CMatrix& a, std::size_t ra, const CMatrix& b,
              std::size_t rb) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("row_hdot: column count mismatch");
  }
  cplx acc{};
  for (std::size_t c = 0; c < a.cols(); ++c) {
    acc += std::conj(a(ra, c)) * b(rb, c);
  }
  return acc;
}

}  // namespace jmb
