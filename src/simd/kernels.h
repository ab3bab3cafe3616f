// Dispatched kernel table: one function pointer per ported hot kernel,
// filled in by each backend from the shared templates in kernels_impl.h.
//
// All kernels operate on raw double arrays holding interleaved complex
// values (re, im pairs), the in-memory layout of cplx/std::complex<double>
// ([complex.numbers.general] array-oriented access). Every backend runs
// the exact scalar operation sequence per lane — results are bitwise
// identical across backends by construction, and tests/test_simd.cpp
// asserts it kernel by kernel.
#pragma once

#include <cstddef>
#include <cstdint>

namespace jmb::simd {

/// Trellis width of the viterbi_acs kernel (the 802.11 K=7 code).
inline constexpr std::size_t kViterbiStates = 64;

/// The erfc_sqrt kernel's piecewise polynomial: kErfcSegments pieces of
/// width 1/kErfcSegmentsPerUnit cover y in [0, kErfcEnd); piece j is a
/// degree-kErfcDegree polynomial in u = kErfcSegmentsPerUnit·y − (j + ½),
/// so u lies in [−½, ½).
inline constexpr std::size_t kErfcSegmentsPerUnit = 32;
inline constexpr std::size_t kErfcSegments = 272;
inline constexpr std::size_t kErfcDegree = 8;
inline constexpr std::size_t kErfcStride = kErfcDegree + 1;  ///< per piece
inline constexpr double kErfcEnd =
    static_cast<double>(kErfcSegments) / kErfcSegmentsPerUnit;  // 8.5

/// Lu's relative singularity threshold: a pivot p fails when
/// |p|^2 <= kLuPivotEps^2 * max(max_ij |a_ij|^2, 1e-300). One copy for
/// linalg::Lu and the zf_pinv kernel, which must agree on it bit for bit.
inline constexpr double kLuPivotEps = 1e-13;

/// Real lanes of the widest backend (AVX-512); zf_pinv's scratch is sized
/// for it so callers need not know the active backend.
inline constexpr std::size_t kMaxRealLanes = 8;

/// Doubles of scratch zf_pinv needs for rows x cols matrices: planar A^H,
/// the Gram/LU matrix, the inverse, one row of W and the pivot rows,
/// kMaxRealLanes lanes each.
constexpr std::size_t zf_pinv_work_size(std::size_t rows, std::size_t cols) {
  return kMaxRealLanes * (2 * cols * rows + 4 * rows * rows + 3 * rows);
}

struct Kernels {
  const char* name;

  /// One radix-2 butterfly pass of stage `len` over `n` interleaved
  /// complex samples in `d`, with the stage's len/2 twiddles in `tw`.
  /// Requires power-of-two n and len (FftPlan's contract).
  void (*fft_pass)(double* d, const double* tw, std::size_t n,
                   std::size_t len);

  /// Every butterfly stage of a planned transform in one call (`tw` holds
  /// the concatenated per-stage twiddles): the same pass sequence as
  /// log2(n) fft_pass calls, minus the per-stage indirect-call overhead
  /// that dominates small transforms.
  void (*fft_run)(double* d, const double* tw, std::size_t n);

  /// out[c] += v * b[c] (complex) for c in [0, n) — the row update of the
  /// matrix-matrix product.
  void (*caxpy_acc)(double* out, const double* b, double vr, double vi,
                    std::size_t n);

  /// row[c] -= f * krow[c] (complex) for c in [c0, n) — the LU
  /// elimination row update.
  void (*caxpy_sub)(double* row, const double* krow, double fr, double fi,
                    std::size_t c0, std::size_t n);

  /// acc[i] += w[i] * x[i] (complex, elementwise) for i in [0, n) — the
  /// subcarrier-batched precoder application for one stream.
  void (*cmac)(double* acc, const double* w, const double* x, std::size_t n);

  /// Fused multi-stream precoder application:
  /// acc[i] += sum_j w[j][i] * x[j][i], accumulated in j order per
  /// element. The running sum stays in a register between streams, so the
  /// per-element operation sequence — and the result — is bitwise
  /// identical to nrows successive cmac calls, minus the intermediate
  /// acc stores/loads.
  void (*cmacn)(double* acc, const double* const* w, const double* const* x,
                std::size_t nrows, std::size_t n);

  /// acc[i] += w[i] (complex, elementwise) for i in [0, n).
  void (*cacc)(double* acc, const double* w, std::size_t n);

  /// out[i] = a[i] * b[i] (complex, elementwise) for i in [0, n).
  /// `out` may alias `a`.
  void (*cmul_ew)(double* out, const double* a, const double* b,
                  std::size_t n);

  /// Dense row-major complex matrix-vector product out = A x
  /// (rows x cols), batched across output rows; each row's accumulation
  /// order matches the scalar kernel exactly.
  void (*cmatvec)(const double* a, std::size_t rows, std::size_t cols,
                  const double* x, double* out);

  /// Conjugate transpose: out (cols x rows) = A^H for row-major A.
  void (*hermitian)(const double* a, std::size_t rows, std::size_t cols,
                    double* out);

  /// Row c of the closed-form link model's gains, batched across
  /// subcarriers (one lane per subcarrier). For each subcarrier k in
  /// [0, n_sc) it forms row c of G = (H_k diag(rot)) W_k and writes
  ///   sig[k]    = |G(c, c)|^2,
  ///   interf[k] = sum over j != c, ascending, of |G(c, j)|^2.
  /// `h` holds nt runs of n_sc complex, run a being H_k(c, a) across k;
  /// `w` holds nt * nc runs, run a * nc + j being W_k(a, j) across k
  /// (Precoder::weight_row's layout); `rot` holds nt complex phasors. Each
  /// lane runs the scalar sequence of rotating H, then multiply_into:
  /// G(c, j) accumulates from zero over a ascending, skipping an exactly
  /// zero H_k(c, a) * rot[a].
  void (*beam_gains)(const double* h, const double* rot, const double* w,
                     std::size_t c, std::size_t nc, std::size_t nt,
                     std::size_t n_sc, double* sig, double* interf);

  /// A piecewise polynomial of y = √(max(x[i], 0)·scale), per lane, for
  /// i in [0, n) (rate::erfc_table() makes it erfc). `table` holds
  /// kErfcSegments runs of kErfcStride coefficients, entry
  /// table[kErfcStride·j + d] being piece j's u^d coefficient b_d.
  /// Each lane runs the scalar sequence:
  ///   y32 = sqrt(max(x, 0)·scale)·32;  j = (int)y32;
  ///   u = y32 − ((double)j + 0.5);  p = Horner from b_8 down to b_0;
  /// and writes 0 where y32 ≥ 272 (y ≥ kErfcEnd) or is ∞, and NaN where
  /// x is NaN. `out` must not alias `x`.
  void (*erfc_sqrt)(const double* x, double scale, const double* table,
                    std::size_t n, double* out);

  /// out[i] = num[i] / den[i] (complex, interleaved) for i in [0, n),
  /// bitwise equal to std::complex<double> division (libgcc's __divdc3):
  /// Smith's method with __divdc3's case split, scale-up and
  /// subnormal-ratio branches per lane; a lane that needs the
  /// near-overflow halving or yields a NaN is recomputed with the scalar
  /// division. `out` must not alias the inputs.
  void (*cdiv)(const double* num, const double* den, std::size_t n,
               double* out);

  /// Pseudo-inverses W_k = A_k^H (A_k A_k^H + ridge I)^-1 of n_sc fat
  /// matrices A_k (rows <= cols), one lane per subcarrier k. Each lane runs
  /// pinv_into's exact operation sequence (linalg/pinv.cpp): A^H; the Gram
  /// product with multiply_into's zero-skip; the ridge on the real
  /// diagonal; Lu::factorize's partial pivoting (strict > on |z|^2, the
  /// kLuPivotEps test) and elimination; Lu::inverse_into's unit-vector
  /// substitutions; then W = A^H * inverse, again with the zero-skip.
  /// Complex divisions go through cdiv's per-lane __divdc3 and the
  /// elimination factor's multiply keeps std::complex's NaN recovery.
  /// a[k] points at A_k (rows x cols, row-major interleaved complex, as
  /// CMatrix stores it) and w[k] at W_k's storage (cols x rows, likewise),
  /// for k in [0, n_sc). `work` holds zf_pinv_work_size(rows, cols)
  /// doubles (64-byte aligned keeps each load within a cache line).
  /// Returns false if any subcarrier's Gram matrix is singular by Lu's
  /// test (the w[k] are then unspecified).
  bool (*zf_pinv)(const double* const* a, std::size_t rows, std::size_t cols,
                  std::size_t n_sc, double ridge, double* const* w,
                  double* work);

  /// One add-compare-select trellis step over kViterbiStates states,
  /// batched across the independent next-states. `signs` is the 256-entry
  /// table from viterbi.cpp: for input bit b in {0,1}, four blocks of 32
  /// doubles (+1/-1) — branch-metric signs for output bit A from the even
  /// predecessor, A from the odd predecessor, B even, B odd. Writes all
  /// of next_metric, surv (winning predecessor state) and surv_bit
  /// (hypothesized input bit).
  void (*viterbi_acs)(const double* metric, const double* signs, double la,
                      double lb, double* next_metric, std::uint8_t* surv,
                      std::uint8_t* surv_bit);
};

/// The table for the active backend (detect_backend() on first use).
[[nodiscard]] const Kernels& active_kernels();

}  // namespace jmb::simd
