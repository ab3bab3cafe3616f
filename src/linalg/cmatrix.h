// Dense complex matrices for per-subcarrier MIMO channel math.
//
// The matrices here are small (N x N for N <= ~20 antennas), so the code
// favours clarity and numerical robustness over blocking/vectorization.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "dsp/types.h"

namespace jmb {

/// Row-major dense complex matrix.
///
/// Invariant: data_.size() == rows_ * cols_ at all times.
class CMatrix {
 public:
  CMatrix() = default;

  /// rows x cols zero matrix.
  CMatrix(std::size_t rows, std::size_t cols);

  /// Build from nested initializer lists (matrix literals in tests); all
  /// rows must be equal length.
  CMatrix(std::initializer_list<std::initializer_list<cplx>> rows);

  [[nodiscard]] static CMatrix identity(std::size_t n);

  /// Reshape to rows x cols and zero every entry. Keeps the underlying
  /// capacity, so repeated resize() to the same (or smaller) shape never
  /// reallocates — the workspace-reuse entry point.
  void resize(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] bool is_square() const { return rows_ == cols_ && rows_ > 0; }

  // Element access is defined inline: it is the innermost operation of
  // every kernel, and an out-of-line call per element dominates the cost
  // of the small per-subcarrier matrices this class exists for.
  [[nodiscard]] cplx& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const cplx& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Conjugate transpose A^H.
  [[nodiscard]] CMatrix hermitian() const;

  /// Matrix product; dimensions must agree.
  [[nodiscard]] CMatrix operator*(const CMatrix& rhs) const;
  /// Matrix-vector product; v.size() must equal cols().
  [[nodiscard]] cvec operator*(const cvec& v) const;

  /// Largest |a_ij|.
  [[nodiscard]] double max_abs() const;
  /// Squared 2-norm of one row (per-antenna transmit power of a precoder row).
  [[nodiscard]] double row_power(std::size_t r) const;

  /// Extract row r as a vector.
  [[nodiscard]] cvec row(std::size_t r) const;
  /// Extract column c as a vector.
  [[nodiscard]] cvec col(std::size_t c) const;
  void set_col(std::size_t c, const cvec& v);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<cplx> data_;
};

/// out = a * b into a preallocated matrix (resized/zeroed in place; no
/// allocation once capacity is warm). `out` must not alias `a` or `b`.
/// Same operation order as CMatrix::operator*, so results are bitwise
/// identical to the allocating API.
void multiply_into(const CMatrix& a, const CMatrix& b, CMatrix& out);

/// out = a * v for a caller-owned output span of exactly a.rows() entries.
/// Bitwise-identical to CMatrix::operator*(const cvec&).
void multiply_into(const CMatrix& a, std::span<const cplx> v,
                   std::span<cplx> out);

/// out = a^H into a preallocated matrix. `out` must not alias `a`.
void hermitian_into(const CMatrix& a, CMatrix& out);

/// Hermitian inner product of row `ra` of `a` with row `rb` of `b`:
/// sum_c conj(a(ra, c)) * b(rb, c). Column counts must match.
[[nodiscard]] cplx row_hdot(const CMatrix& a, std::size_t ra, const CMatrix& b,
                            std::size_t rb);

}  // namespace jmb
