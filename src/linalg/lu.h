// LU factorization with partial pivoting: solves and inverts the square
// per-subcarrier channel matrices that zero-forcing beamforming needs.
#pragma once

#include <optional>
#include <span>

#include "linalg/cmatrix.h"

namespace jmb {

/// LU decomposition of a square matrix with partial (row) pivoting:
/// P*A = L*U, stored compactly. Construction never throws on singular
/// input; check ok() before solving.
/// Reusable buffers for the allocation-free Lu entry points. Lives in the
/// per-trial workspace; warm after the first solve of each shape.
struct LuScratch {
  cvec b;  ///< permuted/unit right-hand side for matrix solves
  cvec y;  ///< forward-substitution intermediate
  cvec x;  ///< back-substitution result before scatter
};

class Lu {
 public:
  /// Empty factorization; call factorize() before solving.
  Lu() = default;

  explicit Lu(const CMatrix& a);

  /// (Re)factorize a square matrix into the existing storage — no
  /// allocation once the shape has been seen. Returns ok().
  bool factorize(const CMatrix& a);

  /// False if a pivot collapsed to (numerical) zero — A is singular.
  [[nodiscard]] bool ok() const { return ok_; }

  /// Solve A x = b. Requires ok().
  [[nodiscard]] cvec solve(const cvec& b) const;

  /// Solve A X = B column by column. Requires ok().
  [[nodiscard]] CMatrix solve(const CMatrix& b) const;

  /// A^{-1}. Requires ok().
  [[nodiscard]] CMatrix inverse() const;

  /// A^{-1} into a preallocated matrix. Requires ok(). Bitwise-identical
  /// to inverse().
  void inverse_into(CMatrix& out, LuScratch& scratch) const;

 private:
  void substitute(std::span<const cplx> b, std::span<cplx> x,
                  LuScratch& scratch) const;

  CMatrix lu_;                   // packed L (unit diagonal) and U
  std::vector<std::size_t> piv_; // row permutation
  bool ok_ = false;
};

/// Convenience: A^{-1} or nullopt if singular.
[[nodiscard]] std::optional<CMatrix> inverse(const CMatrix& a);

}  // namespace jmb
