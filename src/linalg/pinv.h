// Pseudo-inverse and conditioning diagnostics.
//
// Zero-forcing with more total AP antennas than client antennas uses the
// right pseudo-inverse H^H (H H^H)^{-1}; the condition number feeds the
// paper's discussion of the K term in the beamforming rate N log(SNR/K).
#pragma once

#include <optional>
#include <vector>

#include "linalg/cmatrix.h"
#include "linalg/lu.h"
#include "simd/aligned.h"

namespace jmb {

/// Reusable intermediates for pinv_into(). One per workspace; every
/// buffer reaches steady-state capacity after the first call per shape.
struct PinvScratch {
  CMatrix ah;        ///< A^H
  CMatrix gram;      ///< A A^H or A^H A (+ ridge)
  CMatrix gram_inv;  ///< inverse of the Gram matrix
  Lu lu;
  LuScratch lu_scratch;
  // Scratch of core::Precoder's build: the operands of
  // simd::Kernels::zf_pinv, the subcarrier-batched pseudo-inverse behind
  // its ZF and RZF weights, and the sums behind its global power scale.
  std::vector<const double*> batch_a;  ///< each subcarrier's channel
  std::vector<double*> batch_w;        ///< each subcarrier's weights
  simd::advec batch_work;              ///< kernel scratch
  std::vector<double> batch_power;     ///< per-antenna power sums
};

/// Moore-Penrose pseudo-inverse.
///  - rows <= cols (fat, the distributed-MIMO downlink case):
///      A^+ = A^H (A A^H + eps I)^{-1}  (right inverse; A A^+ = I)
///  - rows >  cols (tall): A^+ = (A^H A + eps I)^{-1} A^H (left inverse).
/// `ridge` adds Tikhonov regularization; 0 gives the exact pseudo-inverse
/// for full-rank A, nullopt if the Gram matrix is singular.
[[nodiscard]] std::optional<CMatrix> pinv(const CMatrix& a, double ridge = 0.0);

/// pinv() into a preallocated output with caller-owned scratch. Returns
/// false if the Gram matrix is singular (out is then unspecified).
/// Bitwise-identical to pinv(); the allocating API wraps this kernel.
[[nodiscard]] bool pinv_into(const CMatrix& a, double ridge,
                             PinvScratch& scratch, CMatrix& out);

/// Largest singular value via power iteration on A^H A.
[[nodiscard]] double largest_singular_value(const CMatrix& a, int iters = 60);

/// Smallest singular value via inverse power iteration on A^H A
/// (0 if the Gram matrix is singular).
[[nodiscard]] double smallest_singular_value(const CMatrix& a, int iters = 60);

/// 2-norm condition number sigma_max / sigma_min (inf if singular).
[[nodiscard]] double condition_number(const CMatrix& a);

}  // namespace jmb
