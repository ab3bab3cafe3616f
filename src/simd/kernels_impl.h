// Shared kernel bodies, written once over the arch primitives in batch.h
// and instantiated per backend by the kernels_*.cpp TUs.
//
// Every kernel mirrors the scalar reference loop it replaces (named in
// each comment) operation for operation within a lane; vector lanes only
// batch across independent elements, and every tail falls back to
// ScalarArch running the same body (beam_gains, erfc_sqrt, cdiv and
// zf_pinv instead rerun their last full block over the tail, or hand a run
// shorter than one block to the scalar table). That is what makes the
// dispatch bitwise-invisible.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "simd/batch.h"
#include "simd/kernels.h"
#include "simd/tables.h"

namespace jmb::simd {

namespace impl {

using S = ScalarArch;

/// One butterfly pass of FftPlan::run (dsp/fft_plan.cpp): for each block,
/// v = b[k] * w[k]; a[k], b[k] = a[k] + v, a[k] - v.
template <class A>
void fft_pass(double* d, const double* tw, std::size_t n, std::size_t len) {
  const std::size_t half = len / 2;
  // Butterflies within a pass are disjoint (each touches its own {a, b}
  // pair exactly once), so every loop order below writes the exact same
  // values as the scalar reference's block-outer/k-inner sweep.
  if (len == 2) {
    // First stage: each block is an adjacent [a, b] complex pair sharing
    // the single twiddle. Deinterleave pairs in registers — contiguous
    // full-width loads instead of per-lane strided gathers.
    const auto w = A::cbroadcast(tw[0], tw[1]);
    const std::size_t nblocks = n / 2;
    std::size_t i = 0;
    for (; i + A::kLanes <= nblocks; i += A::kLanes) {
      double* const p = d + 4 * i;
      typename A::CReg av, bv;
      A::cdeinterleave2(p, av, bv);
      const auto v = A::cmul(bv, w);
      A::cinterleave2(p, A::cadd(av, v), A::csub(av, v));
    }
    const auto ws = S::cbroadcast(tw[0], tw[1]);
    double* const endp = d + 4 * nblocks;
    for (double* p = d + 4 * i; p != endp; p += 4) {
      const auto av = S::cload(p);
      const auto bv = S::cload(p + 2);
      const auto v = S::cmul(bv, ws);
      S::cstore(p, S::cadd(av, v));
      S::cstore(p + 2, S::csub(av, v));
    }
    return;
  }
  if (half < A::kLanes) {
    // Fewer butterflies per block than vector lanes: batch across blocks.
    // Lane j is block i + j; strided gather/scatter at 2*len doubles.
    const std::size_t bstride = 2 * len;
    const std::size_t nblocks = n / len;
    for (std::size_t k = 0; k < half; ++k) {
      const auto w = A::cbroadcast(tw[2 * k], tw[2 * k + 1]);
      const auto ws = S::cbroadcast(tw[2 * k], tw[2 * k + 1]);
      std::size_t i = 0;
      for (; i + A::kLanes <= nblocks; i += A::kLanes) {
        double* const base = d + i * bstride + 2 * k;
        const auto av = A::cgather(base, bstride);
        const auto bv = A::cgather(base + 2 * half, bstride);
        const auto v = A::cmul(bv, w);
        A::cscatter(base, bstride, A::cadd(av, v));
        A::cscatter(base + 2 * half, bstride, A::csub(av, v));
      }
      for (; i < nblocks; ++i) {
        double* const base = d + i * bstride + 2 * k;
        const auto av = S::cload(base);
        const auto bv = S::cload(base + 2 * half);
        const auto v = S::cmul(bv, ws);
        S::cstore(base, S::cadd(av, v));
        S::cstore(base + 2 * half, S::csub(av, v));
      }
    }
    return;
  }
  // Main path, k-chunk outer / block inner: each twiddle vector is loaded
  // once and reused across all blocks of the stage. n and len are powers
  // of two (FftPlan enforces it), so with half >= kLanes the vector
  // chunks cover every k exactly — no scalar k tail exists.
  for (std::size_t k = 0; k + A::kLanes <= half; k += A::kLanes) {
    const auto w = A::cload(tw + 2 * k);
    for (std::size_t i = 0; i < n; i += len) {
      double* const a = d + 2 * i + 2 * k;
      double* const b = a + 2 * half;
      const auto bv = A::cload(b);
      const auto av = A::cload(a);
      const auto v = A::cmul(bv, w);
      A::cstore(a, A::cadd(av, v));
      A::cstore(b, A::csub(av, v));
    }
  }
}

/// Compile-time stage sweep for a fixed transform size: every fft_pass
/// call sees constant n and len, so all trip counts fold and the stages
/// unroll into straight-line code. Same passes, same values.
template <class A, std::size_t N, std::size_t Len = 2>
void fft_stages_fixed(double* d, const double* tw) {
  fft_pass<A>(d, tw, N, Len);
  if constexpr (Len < N) {
    // The stage consumed Len/2 complex twiddles = Len doubles.
    fft_stages_fixed<A, N, Len * 2>(d, tw + Len);
  }
}

/// FftPlan::run's full stage sweep; see Kernels::fft_run.
template <class A>
void fft_run(double* d, const double* tw, std::size_t n) {
  if constexpr (A::kLanes > 1) {
    // The OFDM hot size: worth a fully unrolled instantiation in the
    // wide backends, where per-stage loop overhead is the bottleneck.
    if (n == 64) return fft_stages_fixed<A, 64>(d, tw);
  }
  std::size_t off = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    fft_pass<A>(d, tw + 2 * off, n, len);
    off += len / 2;
  }
}

/// Row update of multiply_into(mat, mat) (linalg/cmatrix.cpp):
/// out[c] += v * b[c].
template <class A>
void caxpy_acc(double* out, const double* b, double vr, double vi,
               std::size_t n) {
  const auto vv = A::cbroadcast(vr, vi);
  std::size_t c = 0;
  for (; c + A::kLanes <= n; c += A::kLanes) {
    const auto bv = A::cload(b + 2 * c);
    const auto ov = A::cload(out + 2 * c);
    A::cstore(out + 2 * c, A::cadd(ov, A::cmul(vv, bv)));
  }
  const auto vs = S::cbroadcast(vr, vi);
  for (; c < n; ++c) {
    const auto bv = S::cload(b + 2 * c);
    const auto ov = S::cload(out + 2 * c);
    S::cstore(out + 2 * c, S::cadd(ov, S::cmul(vs, bv)));
  }
}

/// LU elimination row update (linalg/lu.cpp): row[c] -= f * krow[c] for
/// c in [c0, n).
template <class A>
void caxpy_sub(double* row, const double* krow, double fr, double fi,
               std::size_t c0, std::size_t n) {
  const auto fv = A::cbroadcast(fr, fi);
  std::size_t c = c0;
  for (; c + A::kLanes <= n; c += A::kLanes) {
    const auto uv = A::cload(krow + 2 * c);
    const auto rv = A::cload(row + 2 * c);
    A::cstore(row + 2 * c, A::csub(rv, A::cmul(fv, uv)));
  }
  const auto fs = S::cbroadcast(fr, fi);
  for (; c < n; ++c) {
    const auto uv = S::cload(krow + 2 * c);
    const auto rv = S::cload(row + 2 * c);
    S::cstore(row + 2 * c, S::csub(rv, S::cmul(fs, uv)));
  }
}

/// acc[i] += w[i] * x[i] — the per-stream precoder application in
/// engine/pipeline.cpp SynthesisStage (acc += weight * stream sample).
template <class A>
void cmac(double* acc, const double* w, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + A::kLanes <= n; i += A::kLanes) {
    const auto av = A::cload(acc + 2 * i);
    const auto wv = A::cload(w + 2 * i);
    const auto xv = A::cload(x + 2 * i);
    A::cstore(acc + 2 * i, A::cadd(av, A::cmul(wv, xv)));
  }
  for (; i < n; ++i) {
    const auto av = S::cload(acc + 2 * i);
    const auto wv = S::cload(w + 2 * i);
    const auto xv = S::cload(x + 2 * i);
    S::cstore(acc + 2 * i, S::cadd(av, S::cmul(wv, xv)));
  }
}

/// Fused multi-stream version of cmac; see Kernels::cmacn. The j loop
/// mirrors the scalar per-bin stream sum of SynthesisStage exactly.
template <class A>
void cmacn(double* acc, const double* const* w, const double* const* x,
           std::size_t nrows, std::size_t n) {
  std::size_t i = 0;
  for (; i + A::kLanes <= n; i += A::kLanes) {
    auto av = A::cload(acc + 2 * i);
    for (std::size_t j = 0; j < nrows; ++j) {
      av = A::cadd(av,
                   A::cmul(A::cload(w[j] + 2 * i), A::cload(x[j] + 2 * i)));
    }
    A::cstore(acc + 2 * i, av);
  }
  for (; i < n; ++i) {
    auto av = S::cload(acc + 2 * i);
    for (std::size_t j = 0; j < nrows; ++j) {
      av = S::cadd(av,
                   S::cmul(S::cload(w[j] + 2 * i), S::cload(x[j] + 2 * i)));
    }
    S::cstore(acc + 2 * i, av);
  }
}

/// acc[i] += w[i] — the LTF weight sum in SynthesisStage.
template <class A>
void cacc(double* acc, const double* w, std::size_t n) {
  std::size_t i = 0;
  for (; i + A::kLanes <= n; i += A::kLanes) {
    A::cstore(acc + 2 * i,
              A::cadd(A::cload(acc + 2 * i), A::cload(w + 2 * i)));
  }
  for (; i < n; ++i) {
    S::cstore(acc + 2 * i,
              S::cadd(S::cload(acc + 2 * i), S::cload(w + 2 * i)));
  }
}

/// out[i] = a[i] * b[i] (out may alias a) — spec[bin] = w_sum * ltf[bin].
template <class A>
void cmul_ew(double* out, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + A::kLanes <= n; i += A::kLanes) {
    A::cstore(out + 2 * i,
              A::cmul(A::cload(a + 2 * i), A::cload(b + 2 * i)));
  }
  for (; i < n; ++i) {
    S::cstore(out + 2 * i,
              S::cmul(S::cload(a + 2 * i), S::cload(b + 2 * i)));
  }
}

/// multiply_into(mat, vec) (linalg/cmatrix.cpp): out = A x, batched
/// across output rows (the independent dimension); each lane runs the
/// scalar per-row accumulation `acc += a(r, c) * x[c]` in column order.
template <class A>
void cmatvec(const double* a, std::size_t rows, std::size_t cols,
             const double* x, double* out) {
  const std::size_t stride = 2 * cols;
  std::size_t r = 0;
  for (; r + A::kLanes <= rows; r += A::kLanes) {
    const double* const arow = a + r * stride;
    auto acc = A::cbroadcast(0.0, 0.0);
    for (std::size_t c = 0; c < cols; ++c) {
      const auto av = A::cgather(arow + 2 * c, stride);
      const auto xv = A::cbroadcast(x[2 * c], x[2 * c + 1]);
      acc = A::cadd(acc, A::cmul(av, xv));
    }
    A::cstore(out + 2 * r, acc);
  }
  for (; r < rows; ++r) {
    const double* const arow = a + r * stride;
    auto acc = S::cbroadcast(0.0, 0.0);
    for (std::size_t c = 0; c < cols; ++c) {
      acc = S::cadd(acc, S::cmul(S::cload(arow + 2 * c),
                                 S::cload(x + 2 * c)));
    }
    S::cstore(out + 2 * r, acc);
  }
}

/// hermitian_into (linalg/cmatrix.cpp): out(c, r) = conj(a(r, c)),
/// batched down each output row (a column of A, stride 2*cols apart).
template <class A>
void hermitian(const double* a, std::size_t rows, std::size_t cols,
               double* out) {
  const std::size_t stride = 2 * cols;
  for (std::size_t c = 0; c < cols; ++c) {
    double* const orow = out + c * 2 * rows;
    const double* const acol = a + 2 * c;
    std::size_t r = 0;
    for (; r + A::kLanes <= rows; r += A::kLanes) {
      A::cstore(orow + 2 * r, A::cconj(A::cgather(acol + r * stride, stride)));
    }
    for (; r < rows; ++r) {
      S::cstore(orow + 2 * r, S::cconj(S::cload(acol + r * stride)));
    }
  }
}

/// Columns [j0, j0 + NJ) of row c of G for the A::kRealLanes subcarriers
/// starting at k (`h` holds row c of H), folded into client c's
/// |G(c, c)|^2 (`sig`) and running interference sum (`interf`). Lane i is
/// subcarrier k + i and runs, in split re/im registers, the scalar loop
/// core::beamforming_sinr used to run one subcarrier at a time (kept as
/// reference_beamforming_sinr in tests/test_core_models.cpp):
/// H_err(c, a) = H(c, a) * rot[a]; G(c, j) += H_err(c, a) * W(a, j) over a
/// ascending from zero, unless H_err(c, a) == 0 (multiply_into's
/// zero-skip, a per-lane select); then std::norm's re*re + im*im, added to
/// the interference in j order. NJ is a compile-time width so the
/// accumulators stay in registers.
template <class A, std::size_t NJ>
void beam_gains_cols(const double* h, const double* rot, const double* w,
                     std::size_t nc, std::size_t nt, std::size_t n_sc,
                     std::size_t k, std::size_t c, std::size_t j0,
                     typename A::RReg& sig, typename A::RReg& interf) {
  using R = typename A::RReg;
  const R zero = A::rbroadcast(0.0);
  R gre[NJ];
  R gim[NJ];
  for (std::size_t j = 0; j < NJ; ++j) gre[j] = gim[j] = zero;
  for (std::size_t a = 0; a < nt; ++a) {
    R hr, hi;
    A::deinterleave(h + 2 * (a * n_sc + k), hr, hi);
    const R rr = A::rbroadcast(rot[2 * a]);
    const R ri = A::rbroadcast(rot[2 * a + 1]);
    const R er = A::rsub(A::rmul(hr, rr), A::rmul(hi, ri));
    const R ei = A::radd(A::rmul(hr, ri), A::rmul(hi, rr));
    const auto skip = A::mand(A::rcmp_eq(er, zero), A::rcmp_eq(ei, zero));
    const double* const wa = w + 2 * ((a * nc + j0) * n_sc + k);
    if (A::mask_bits(skip) == 0) {
      // No lane skips (the usual case): plain accumulation.
      for (std::size_t j = 0; j < NJ; ++j) {
        R wr, wi;
        A::deinterleave(wa + 2 * j * n_sc, wr, wi);
        gre[j] = A::radd(gre[j], A::rsub(A::rmul(er, wr), A::rmul(ei, wi)));
        gim[j] = A::radd(gim[j], A::radd(A::rmul(er, wi), A::rmul(ei, wr)));
      }
      continue;
    }
    for (std::size_t j = 0; j < NJ; ++j) {
      R wr, wi;
      A::deinterleave(wa + 2 * j * n_sc, wr, wi);
      const R pr = A::rsub(A::rmul(er, wr), A::rmul(ei, wi));
      const R pi = A::radd(A::rmul(er, wi), A::rmul(ei, wr));
      gre[j] = A::rselect(skip, gre[j], A::radd(gre[j], pr));
      gim[j] = A::rselect(skip, gim[j], A::radd(gim[j], pi));
    }
  }
  for (std::size_t j = 0; j < NJ; ++j) {
    const R p = A::radd(A::rmul(gre[j], gre[j]), A::rmul(gim[j], gim[j]));
    if (j0 + j == c) {
      sig = p;
    } else {
      interf = A::radd(interf, p);
    }
  }
}

/// beam_gains_cols with NJ = nj <= N, picked at run time.
template <class A, std::size_t N>
void beam_gains_cols_upto(std::size_t nj, const double* h, const double* rot,
                          const double* w, std::size_t nc, std::size_t nt,
                          std::size_t n_sc, std::size_t k, std::size_t c,
                          std::size_t j0, typename A::RReg& sig,
                          typename A::RReg& interf) {
  if constexpr (N > 1) {
    if (nj < N) {
      beam_gains_cols_upto<A, N - 1>(nj, h, rot, w, nc, nt, n_sc, k, c, j0,
                                     sig, interf);
      return;
    }
  }
  beam_gains_cols<A, N>(h, rot, w, nc, nt, n_sc, k, c, j0, sig, interf);
}

/// beam_gains for the A::kRealLanes subcarriers starting at k. Row c of G
/// is built in column blocks of up to kCols (as many accumulators as the
/// arch's registers hold), so a wider client set rotates H(c, a) once per
/// column block — the same product each time.
template <class A>
void beam_gains_block(const double* h, const double* rot, const double* w,
                      std::size_t c, std::size_t nc, std::size_t nt,
                      std::size_t n_sc, std::size_t k, double* sig,
                      double* interf) {
  using R = typename A::RReg;
  constexpr std::size_t kCols = A::kRealLanes >= 8 ? 8 : 4;
  R sig_v = A::rbroadcast(0.0);
  R interf_v = A::rbroadcast(0.0);
  for (std::size_t j0 = 0; j0 < nc; j0 += kCols) {
    beam_gains_cols_upto<A, kCols>(nc - j0, h, rot, w, nc, nt, n_sc, k, c,
                                   j0, sig_v, interf_v);
  }
  A::rstore(sig + k, sig_v);
  A::rstore(interf + k, interf_v);
}

/// See Kernels::beam_gains.
template <class A>
void beam_gains(const double* h, const double* rot, const double* w,
                std::size_t c, std::size_t nc, std::size_t nt,
                std::size_t n_sc, double* sig, double* interf) {
  if constexpr (A::kRealLanes > 1) {
    if (n_sc < A::kRealLanes) {
      // Shorter than one block: the scalar table runs the same sequence
      // (and the vector TUs carry no scalar copy of this kernel).
      scalar_kernels()->beam_gains(h, rot, w, c, nc, nt, n_sc, sig, interf);
      return;
    }
  }
  std::size_t k = 0;
  for (; k + A::kRealLanes <= n_sc; k += A::kRealLanes) {
    beam_gains_block<A>(h, rot, w, c, nc, nt, n_sc, k, sig, interf);
  }
  if (k < n_sc) {
    // Tail: one more full block ending at n_sc. Its leading lanes redo
    // subcarriers already written, and lanes are independent, so they
    // store the same values again.
    beam_gains_block<A>(h, rot, w, c, nc, nt, n_sc, n_sc - A::kRealLanes,
                        sig, interf);
  }
}

/// erfc_sqrt for the A::kRealLanes inputs starting at i. Each lane's
/// piece is a row of the table: b_1..b_8 come in as one transposed row
/// gather, b_0 (used last) as a one-per-lane gather.
template <class A>
void erfc_sqrt_block(const double* x, double scale, const double* table,
                     std::size_t i, double* out) {
  static_assert(kErfcDegree == 8, "rgather_rows yields b_1..b_8");
  const auto zero = A::rbroadcast(0.0);
  const auto xi = A::rload(x + i);
  // max(x, 0) as std::max does it: a NaN or −0 passes through.
  const auto s = A::rselect(A::rcmp_gt(zero, xi), zero, xi);
  const auto y32 =
      A::rmul(A::rsquare_root(A::rmul(s, A::rbroadcast(scale))),
              A::rbroadcast(static_cast<double>(kErfcSegmentsPerUnit)));
  // False for ∞ and NaN too; those lanes read piece 0 and write 0 (∞)
  // or their NaN.
  const auto in =
      A::rcmp_gt(A::rbroadcast(static_cast<double>(kErfcSegments)), y32);
  const auto yc = A::rselect(in, y32, zero);
  const auto j = A::rindex(yc);
  const auto u = A::rsub(yc, A::radd(A::rindex_to_real(j),
                                     A::rbroadcast(0.5)));
  std::int32_t piece[A::kRealLanes];
  A::istore(piece, j);
  const double* row[A::kRealLanes];
  const double* high[A::kRealLanes];
  for (std::size_t l = 0; l < A::kRealLanes; ++l) {
    row[l] = table + kErfcStride * static_cast<std::size_t>(piece[l]);
    high[l] = row[l] + 1;
  }
  typename A::RReg b[kErfcDegree];  // b[d] holds b_{d+1}
  A::rgather_rows(high, b);
  auto p = b[kErfcDegree - 1];
  for (std::size_t d = kErfcDegree - 1; d-- > 0;) {
    p = A::radd(A::rmul(p, u), b[d]);
  }
  p = A::radd(A::rmul(p, u), A::rgather(row));
  const auto past = A::rselect(A::rcmp_eq(y32, y32), zero, y32);
  A::rstore(out + i, A::rselect(in, p, past));
}

/// See Kernels::erfc_sqrt.
template <class A>
void erfc_sqrt(const double* x, double scale, const double* table,
               std::size_t n, double* out) {
  if constexpr (A::kRealLanes > 1) {
    if (n < A::kRealLanes) {
      scalar_kernels()->erfc_sqrt(x, scale, table, n, out);
      return;
    }
  }
  std::size_t i = 0;
  for (; i + A::kRealLanes <= n; i += A::kRealLanes) {
    erfc_sqrt_block<A>(x, scale, table, i, out);
  }
  // Tail: one more full block ending at n, as in beam_gains.
  if (i < n) erfc_sqrt_block<A>(x, scale, table, n - A::kRealLanes, out);
}

// libgcc2.c's __divdc3 thresholds for double: RBIG, RMIN, RMIN2, RMINSCAL
// and RMAX2.
inline constexpr double kDivBig = std::numeric_limits<double>::max() / 2;
inline constexpr double kDivMin = std::numeric_limits<double>::min();
inline constexpr double kDivMin2 = std::numeric_limits<double>::epsilon();
inline constexpr double kDivMinScale = 1 / kDivMin2;
inline constexpr double kDivMax2 = kDivBig * kDivMin2;

/// Complex division by c + i d per lane, bit for bit as std::complex<double>
/// division, which GCC lowers to libgcc's __divdc3 (GCC 12, libgcc2.c).
/// That routine divides by the larger of |c| and |d| (Smith's method;
/// |c| < |d| is one case, ties and NaN take the other), first multiplying
/// all four inputs by 2^52 when the divisor is below DBL_EPSILON or a
/// numerator part is below DBL_MIN beside moderate values, and when the
/// ratio is subnormal or zero it divides the numerator by the larger part
/// before multiplying by the smaller. Each lane takes those branches by
/// select, in the routine's operation order. A lane whose divisor part
/// reaches DBL_MAX / 2 (the routine halves all four inputs first) or whose
/// quotient has a NaN part (it may then recover infinities and zeros) is
/// recomputed with the scalar division itself.
///
/// The constructor does the divisor's half of the work once, so a pivot
/// that divides many numerators pays for it once. It keeps both scalings:
/// multiplying c and d by 2^52 is exact when the routine does it (the
/// larger part is then below DBL_MAX / 2^53), so the ratio is the same
/// quotient either way, but c * ratio may be subnormal unscaled and not
/// scaled, so the denominator is kept for each.
template <class A>
struct CdivLanes {
  using R = typename A::RReg;
  using M = typename A::MReg;
  static constexpr std::size_t L = A::kRealLanes;
  static constexpr unsigned kAll = (1u << L) - 1;

  R c, d;                       // as given, for the scalar fallback
  M d_big;                      // |c| < |d|
  R big;                        // max(|c|, |d|)
  M tiny_div;                   // big < DBL_EPSILON: always scaled up
  unsigned halve;               // lanes with big >= DBL_MAX / 2
  R small_u, large_u, denom_u;  // unscaled
  R small_s, large_s, denom_s;  // scaled by 2^52
  R ratio;                      // small / large, the same either way
  M normal;                     // |ratio| > DBL_MIN

  CdivLanes(R c_in, R d_in) : c(c_in), d(d_in) {
    const R abs_c = A::rabs(c);
    const R abs_d = A::rabs(d);
    d_big = A::rcmp_gt(abs_d, abs_c);
    big = A::rselect(d_big, abs_d, abs_c);
    tiny_div = A::rcmp_gt(A::rbroadcast(kDivMin2), big);
    halve = A::mask_bits(A::rcmp_le(A::rbroadcast(kDivBig), big));
    // |c| < |d|: ratio = c/d, denom = c*ratio + d; otherwise d/c, d*ratio + c.
    small_u = A::rselect(d_big, c, d);
    large_u = A::rselect(d_big, d, c);
    const R scale = A::rbroadcast(kDivMinScale);
    small_s = A::rmul(small_u, scale);
    large_s = A::rmul(large_u, scale);
    ratio = A::rdiv(small_u, large_u);
    denom_u = A::radd(A::rmul(small_u, ratio), large_u);
    denom_s = A::radd(A::rmul(small_s, ratio), large_s);
    normal = A::rcmp_gt(A::rabs(ratio), A::rbroadcast(kDivMin));
  }

  /// (xr + i xi) = (a + i b) / (c + i d).
  void divide(R a, R b, R& xr, R& xi) const {
    const R abs_a = A::rabs(a);
    const R abs_b = A::rabs(b);
    const R rmin = A::rbroadcast(kDivMin);
    const R rmax2 = A::rbroadcast(kDivMax2);
    const auto tiny_num =
        A::mor(A::mand(A::rcmp_gt(rmin, abs_a), A::rcmp_gt(rmax2, abs_b)),
               A::mand(A::rcmp_gt(rmin, abs_b), A::rcmp_gt(rmax2, abs_a)));
    const auto up = A::mor(tiny_div, A::mand(tiny_num, A::rcmp_gt(rmax2, big)));
    // x * 1.0 == x for every non-NaN x, so unscaled lanes keep their bits.
    const R f =
        A::rselect(up, A::rbroadcast(kDivMinScale), A::rbroadcast(1.0));
    const R as = A::rmul(a, f);
    const R bs = A::rmul(b, f);
    // |c| < |d|: x = a*ratio + b, y = b*ratio - a.
    // Otherwise: x = b*ratio + a, y = b - a*ratio.
    const R p = A::rselect(d_big, as, bs);
    const R q = A::rselect(d_big, bs, as);
    R mp = A::rmul(p, ratio);
    R mq = A::rmul(q, ratio);
    if (A::mask_bits(normal) != kAll) {
      const R small = A::rselect(up, small_s, small_u);
      const R large = A::rselect(up, large_s, large_u);
      mp = A::rselect(normal, mp, A::rmul(small, A::rdiv(p, large)));
      mq = A::rselect(normal, mq, A::rmul(small, A::rdiv(q, large)));
    }
    const R denom = A::rselect(up, denom_s, denom_u);
    xr = A::rdiv(A::radd(mp, q), denom);
    xi = A::rdiv(A::rselect(d_big, A::rsub(mq, p), A::rsub(p, mq)), denom);
    const unsigned redo =
        halve |
        (~A::mask_bits(A::mand(A::rcmp_eq(xr, xr), A::rcmp_eq(xi, xi))) &
         kAll);
    if (redo == 0) return;
    double v[6][L];
    A::rstore(v[0], a);
    A::rstore(v[1], b);
    A::rstore(v[2], c);
    A::rstore(v[3], d);
    A::rstore(v[4], xr);
    A::rstore(v[5], xi);
    for (std::size_t l = 0; l < L; ++l) {
      if (((redo >> l) & 1u) == 0) continue;
      const std::complex<double> z =
          std::complex<double>(v[0][l], v[1][l]) /
          std::complex<double>(v[2][l], v[3][l]);
      v[4][l] = z.real();
      v[5][l] = z.imag();
    }
    xr = A::rload(v[4]);
    xi = A::rload(v[5]);
  }
};

/// (xr + i xi) = (ar + i ai) * (br + i bi) per lane as std::complex<double>
/// multiplication: GCC's inline ar*br - ai*bi, ar*bi + ai*br, with
/// libgcc's __muldc3 recovering infinities when both parts are NaN (such
/// lanes rerun the scalar product).
template <class A>
void cmul_lanes(typename A::RReg ar, typename A::RReg ai, typename A::RReg br,
                typename A::RReg bi, typename A::RReg& xr,
                typename A::RReg& xi) {
  constexpr std::size_t L = A::kRealLanes;
  constexpr unsigned kAll = (1u << L) - 1;
  xr = A::rsub(A::rmul(ar, br), A::rmul(ai, bi));
  xi = A::radd(A::rmul(ar, bi), A::rmul(ai, br));
  const unsigned redo =
      ~A::mask_bits(A::mor(A::rcmp_eq(xr, xr), A::rcmp_eq(xi, xi))) & kAll;
  if (redo == 0) return;
  double v[6][L];
  A::rstore(v[0], ar);
  A::rstore(v[1], ai);
  A::rstore(v[2], br);
  A::rstore(v[3], bi);
  A::rstore(v[4], xr);
  A::rstore(v[5], xi);
  for (std::size_t l = 0; l < L; ++l) {
    if (((redo >> l) & 1u) == 0) continue;
    const std::complex<double> z = std::complex<double>(v[0][l], v[1][l]) *
                                   std::complex<double>(v[2][l], v[3][l]);
    v[4][l] = z.real();
    v[5][l] = z.imag();
  }
  xr = A::rload(v[4]);
  xi = A::rload(v[5]);
}

/// cdiv for the A::kRealLanes quotients starting at i.
template <class A>
void cdiv_block(const double* num, const double* den, std::size_t i,
                double* out) {
  constexpr std::size_t L = A::kRealLanes;
  typename A::RReg a, b, c, d, x, y;
  A::deinterleave(num + 2 * i, a, b);
  A::deinterleave(den + 2 * i, c, d);
  CdivLanes<A>(c, d).divide(a, b, x, y);
  double xs[L];
  double ys[L];
  A::rstore(xs, x);
  A::rstore(ys, y);
  for (std::size_t l = 0; l < L; ++l) {
    out[2 * (i + l)] = xs[l];
    out[2 * (i + l) + 1] = ys[l];
  }
}

/// See Kernels::cdiv.
template <class A>
void cdiv(const double* num, const double* den, std::size_t n, double* out) {
  if constexpr (A::kRealLanes > 1) {
    if (n < A::kRealLanes) {
      scalar_kernels()->cdiv(num, den, n, out);
      return;
    }
  }
  std::size_t i = 0;
  for (; i + A::kRealLanes <= n; i += A::kRealLanes) {
    cdiv_block<A>(num, den, i, out);
  }
  // Tail: one more full block ending at n, as in beam_gains.
  if (i < n) cdiv_block<A>(num, den, n - A::kRealLanes, out);
}

/// zf_pinv for the A::kRealLanes subcarriers starting at k; lane l is
/// subcarrier k + l. The scratch holds each complex entry e of a matrix
/// as kRealLanes real parts at m + 2Le followed by kRealLanes imaginary
/// parts. Returns false as soon as any lane's pivot fails Lu's test (the
/// reference then fails the whole build too).
template <class A>
bool zf_pinv_block(const double* const* a, std::size_t rows, std::size_t cols,
                   std::size_t k, double ridge, double* const* w,
                   double* work) {
  using R = typename A::RReg;
  constexpr std::size_t L = A::kRealLanes;
  constexpr unsigned kAll = (1u << L) - 1;
  const std::size_t n = rows;
  double* const ah = work;                   // cols x n: A^H
  double* const lu = ah + 2 * L * cols * n;  // n x n: Gram, then L\U
  double* const inv = lu + 2 * L * n * n;    // n x n: the Gram inverse
  double* const wrow = inv + 2 * L * n * n;  // n: one row of W
  double* const piv = wrow + 2 * L * n;      // n: row permutation
  const auto ldr = [](const double* m, std::size_t e) {
    return A::rload(m + 2 * L * e);
  };
  const auto ldi = [](const double* m, std::size_t e) {
    return A::rload(m + 2 * L * e + L);
  };
  const auto st = [](double* m, std::size_t e, R vr, R vi) {
    A::rstore(m + 2 * L * e, vr);
    A::rstore(m + 2 * L * e + L, vi);
  };
  const R zero = A::rbroadcast(0.0);
  const auto is_zero = [&](R vr, R vi) {
    return A::mand(A::rcmp_eq(vr, zero), A::rcmp_eq(vi, zero));
  };

  // A^H (hermitian_into), transposing four entries at a time from the
  // lanes' row-major matrices into planar registers.
  const double* src[L];
  const std::size_t entries = n * cols;
  std::size_t e = 0;
  for (; e + 4 <= entries; e += 4) {
    for (std::size_t l = 0; l < L; ++l) src[l] = a[k + l] + 2 * e;
    R v[8];
    A::rgather_rows(src, v);
    for (std::size_t t = 0; t < 4; ++t) {
      const std::size_t r = (e + t) / cols;
      const std::size_t c = (e + t) % cols;
      st(ah, c * n + r, v[2 * t], A::rneg(v[2 * t + 1]));
    }
  }
  for (; e < entries; ++e) {
    for (std::size_t l = 0; l < L; ++l) src[l] = a[k + l] + 2 * e;
    const R vr = A::rgather(src);
    for (std::size_t l = 0; l < L; ++l) ++src[l];
    st(ah, (e % cols) * n + e / cols, vr, A::rneg(A::rgather(src)));
  }

  // Gram = A A^H (multiply_into): row r accumulates v * A^H(j, :) over j
  // ascending, skipping the lanes where v = A(r, j) = conj(A^H(j, r)) is
  // exactly zero.
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) st(lu, r * n + c, zero, zero);
    for (std::size_t j = 0; j < cols; ++j) {
      const R vr = ldr(ah, j * n + r);
      const R vi = A::rneg(ldi(ah, j * n + r));
      const auto skip = is_zero(vr, vi);
      const unsigned skip_bits = A::mask_bits(skip);
      if (skip_bits == kAll) continue;
      for (std::size_t c = 0; c < n; ++c) {
        const R br = ldr(ah, j * n + c);
        const R bi = ldi(ah, j * n + c);
        const R orr = ldr(lu, r * n + c);
        const R oi = ldi(lu, r * n + c);
        R sr = A::radd(orr, A::rsub(A::rmul(vr, br), A::rmul(vi, bi)));
        R si = A::radd(oi, A::radd(A::rmul(vr, bi), A::rmul(vi, br)));
        if (skip_bits != 0) {
          sr = A::rselect(skip, orr, sr);
          si = A::rselect(skip, oi, si);
        }
        st(lu, r * n + c, sr, si);
      }
    }
  }
  // The ridge joins the real diagonal only (complex += double).
  const R ridge_v = A::rbroadcast(ridge);
  for (std::size_t i = 0; i < n; ++i) {
    A::rstore(lu + 2 * L * (i * n + i), A::radd(ldr(lu, i * n + i), ridge_v));
  }

  // Lu::factorize: pivot on |z|^2, fail at |p|^2 <= kLuPivotEps^2 *
  // max(max |a_ij|^2, 1e-300).
  const auto norm = [&](std::size_t e) {
    const R vr = ldr(lu, e);
    const R vi = ldi(lu, e);
    return A::radd(A::rmul(vr, vr), A::rmul(vi, vi));
  };
  R scale2 = zero;
  for (std::size_t e = 0; e < n * n; ++e) {
    const R m = norm(e);
    scale2 = A::rselect(A::rcmp_gt(m, scale2), m, scale2);
  }
  const R floor2 = A::rbroadcast(1e-300);
  const R thr2 =
      A::rmul(A::rbroadcast(kLuPivotEps * kLuPivotEps),
              A::rselect(A::rcmp_gt(floor2, scale2), floor2, scale2));
  for (std::size_t i = 0; i < n; ++i) {
    A::rstore(piv + L * i, A::rbroadcast(static_cast<double>(i)));
  }
  const R one = A::rbroadcast(1.0);
  for (std::size_t kk = 0; kk < n; ++kk) {
    R best = norm(kk * n + kk);
    R p = A::rbroadcast(static_cast<double>(kk));
    for (std::size_t r = kk + 1; r < n; ++r) {
      const R m = norm(r * n + kk);
      const auto gt = A::rcmp_gt(m, best);
      best = A::rselect(gt, m, best);
      p = A::rselect(gt, A::rbroadcast(static_cast<double>(r)), p);
    }
    if (A::mask_bits(A::rcmp_le(best, thr2)) != 0) return false;
    // Swap row kk with each lane's pivot row p, by blend.
    for (std::size_t r = kk + 1; r < n; ++r) {
      const auto sw = A::rcmp_eq(p, A::rbroadcast(static_cast<double>(r)));
      if (A::mask_bits(sw) == 0) continue;
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t part = 0; part < 2; ++part) {
          double* const pk = lu + 2 * L * (kk * n + c) + part * L;
          double* const pr = lu + 2 * L * (r * n + c) + part * L;
          const R vk = A::rload(pk);
          const R vr = A::rload(pr);
          A::rstore(pk, A::rselect(sw, vr, vk));
          A::rstore(pr, A::rselect(sw, vk, vr));
        }
      }
      const R vk = A::rload(piv + L * kk);
      const R vr = A::rload(piv + L * r);
      A::rstore(piv + L * kk, A::rselect(sw, vr, vk));
      A::rstore(piv + L * r, A::rselect(sw, vk, vr));
    }
    R ipr, ipi;  // 1.0 / lu(kk, kk)
    CdivLanes<A>(ldr(lu, kk * n + kk), ldi(lu, kk * n + kk))
        .divide(one, zero, ipr, ipi);
    for (std::size_t r = kk + 1; r < n; ++r) {
      R fr, fi;
      cmul_lanes<A>(ldr(lu, r * n + kk), ldi(lu, r * n + kk), ipr, ipi, fr,
                    fi);
      st(lu, r * n + kk, fr, fi);
      for (std::size_t c = kk + 1; c < n; ++c) {
        const R ur = ldr(lu, kk * n + c);
        const R ui = ldi(lu, kk * n + c);
        st(lu, r * n + c,
           A::rsub(ldr(lu, r * n + c),
                   A::rsub(A::rmul(fr, ur), A::rmul(fi, ui))),
           A::rsub(ldi(lu, r * n + c),
                   A::radd(A::rmul(fr, ui), A::rmul(fi, ur))));
      }
    }
  }

  // Lu::inverse_into: column c of the inverse solves L U x = P e_c. Each
  // column keeps its own operation sequence; the sweeps run row by row
  // across all columns so that the columns' divisions, independent of one
  // another, sit next to each other. The forward sweep's y(i, c) is kept
  // in inv(i, c): the back sweep reads it there just before overwriting
  // it with x(i, c).
  for (std::size_t i = 0; i < n; ++i) {
    const R pi = A::rload(piv + L * i);
    for (std::size_t c = 0; c < n; ++c) {
      R accr = A::rselect(
          A::rcmp_eq(pi, A::rbroadcast(static_cast<double>(c))), one, zero);
      R acci = zero;
      for (std::size_t j = 0; j < i; ++j) {
        const R lr = ldr(lu, i * n + j);
        const R li = ldi(lu, i * n + j);
        const R vr = ldr(inv, j * n + c);
        const R vi = ldi(inv, j * n + c);
        accr = A::rsub(accr, A::rsub(A::rmul(lr, vr), A::rmul(li, vi)));
        acci = A::rsub(acci, A::radd(A::rmul(lr, vi), A::rmul(li, vr)));
      }
      st(inv, i * n + c, accr, acci);
    }
  }
  for (std::size_t ii = n; ii-- > 0;) {
    const CdivLanes<A> pivot(ldr(lu, ii * n + ii), ldi(lu, ii * n + ii));
    for (std::size_t c = 0; c < n; ++c) {
      R accr = ldr(inv, ii * n + c);
      R acci = ldi(inv, ii * n + c);
      for (std::size_t j = ii + 1; j < n; ++j) {
        const R ur = ldr(lu, ii * n + j);
        const R ui = ldi(lu, ii * n + j);
        const R vr = ldr(inv, j * n + c);
        const R vi = ldi(inv, j * n + c);
        accr = A::rsub(accr, A::rsub(A::rmul(ur, vr), A::rmul(ui, vi)));
        acci = A::rsub(acci, A::radd(A::rmul(ur, vi), A::rmul(ui, vr)));
      }
      R xr, xi;
      pivot.divide(accr, acci, xr, xi);
      st(inv, ii * n + c, xr, xi);
    }
  }

  // W = A^H * inverse (multiply_into), a row at a time; each finished
  // row goes back to the lanes' row-major matrices.
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t j = 0; j < n; ++j) st(wrow, j, zero, zero);
    for (std::size_t kk = 0; kk < n; ++kk) {
      const R vr = ldr(ah, c * n + kk);
      const R vi = ldi(ah, c * n + kk);
      const auto skip = is_zero(vr, vi);
      const unsigned skip_bits = A::mask_bits(skip);
      if (skip_bits == kAll) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const R br = ldr(inv, kk * n + j);
        const R bi = ldi(inv, kk * n + j);
        const R orr = ldr(wrow, j);
        const R oi = ldi(wrow, j);
        R sr = A::radd(orr, A::rsub(A::rmul(vr, br), A::rmul(vi, bi)));
        R si = A::radd(oi, A::radd(A::rmul(vr, bi), A::rmul(vi, br)));
        if (skip_bits != 0) {
          sr = A::rselect(skip, orr, sr);
          si = A::rselect(skip, oi, si);
        }
        st(wrow, j, sr, si);
      }
    }
    for (std::size_t l = 0; l < L; ++l) {
      double* const out = w[k + l] + 2 * c * n;
      for (std::size_t j = 0; j < n; ++j) {
        out[2 * j] = wrow[2 * L * j + l];
        out[2 * j + 1] = wrow[2 * L * j + L + l];
      }
    }
  }
  return true;
}

/// See Kernels::zf_pinv.
template <class A>
bool zf_pinv(const double* const* a, std::size_t rows, std::size_t cols,
             std::size_t n_sc, double ridge, double* const* w, double* work) {
  static_assert(A::kRealLanes <= kMaxRealLanes);
  if constexpr (A::kRealLanes > 1) {
    if (n_sc < A::kRealLanes) {
      return scalar_kernels()->zf_pinv(a, rows, cols, n_sc, ridge, w, work);
    }
  }
  std::size_t k = 0;
  for (; k + A::kRealLanes <= n_sc; k += A::kRealLanes) {
    if (!zf_pinv_block<A>(a, rows, cols, k, ridge, w, work)) return false;
  }
  // Tail: one more full block ending at n_sc, as in beam_gains.
  if (k < n_sc) {
    return zf_pinv_block<A>(a, rows, cols, n_sc - A::kRealLanes, ridge, w,
                            work);
  }
  return true;
}

/// One ACS step of viterbi_decode_into (phy/viterbi.cpp), batched across
/// the 2*kRealLanes independent next-states of the butterfly: next state
/// ns = (b << 5) | m has exactly two predecessors 2m (even) and 2m + 1
/// (odd), both hypothesizing input bit b. Each candidate runs the scalar
/// metric update ((metric + sa*la) + sb*lb) with sa, sb in {+1.0, -1.0}
/// (multiplying by ±1.0 is exact, so sa*la is bitwise ±la); the
/// strictly-greater compare keeps the even predecessor on ties, matching
/// the sequential `m > next_metric[ns]` update that sees even first.
/// Unreachable states (-inf from both predecessors) get next_metric
/// = -inf just like the scalar refill; their surv/surv_bit bytes are
/// written deterministically where the scalar loop leaves them stale —
/// traceback never visits an unreachable state, so decodes are identical.
template <class A>
void viterbi_acs(const double* metric, const double* signs, double la,
                 double lb, double* next_metric, std::uint8_t* surv,
                 std::uint8_t* surv_bit) {
  constexpr std::size_t kHalf = kViterbiStates / 2;
  static_assert(kHalf % A::kRealLanes == 0);
  const auto lav = A::rbroadcast(la);
  const auto lbv = A::rbroadcast(lb);
  for (unsigned b = 0; b < 2; ++b) {
    // Sign-table blocks for this input bit: A-even, A-odd, B-even, B-odd.
    const double* const sg = signs + b * 4 * kHalf;
    for (std::size_t m = 0; m < kHalf; m += A::kRealLanes) {
      typename A::RReg me, mo;
      A::deinterleave(metric + 2 * m, me, mo);
      const auto cand_e =
          A::radd(A::radd(me, A::rmul(A::rload(sg + m), lav)),
                  A::rmul(A::rload(sg + 2 * kHalf + m), lbv));
      const auto cand_o =
          A::radd(A::radd(mo, A::rmul(A::rload(sg + kHalf + m), lav)),
                  A::rmul(A::rload(sg + 3 * kHalf + m), lbv));
      const auto odd_wins = A::rcmp_gt(cand_o, cand_e);
      A::rstore(next_metric + b * kHalf + m,
                A::rselect(odd_wins, cand_o, cand_e));
      const unsigned bits = A::mask_bits(odd_wins);
      for (std::size_t i = 0; i < A::kRealLanes; ++i) {
        const std::size_t ns = b * kHalf + m + i;
        surv[ns] =
            static_cast<std::uint8_t>(2 * (m + i) + ((bits >> i) & 1u));
        surv_bit[ns] = static_cast<std::uint8_t>(b);
      }
    }
  }
}

}  // namespace impl

/// Fill a kernel table with the instantiations for arch A.
template <class A>
constexpr Kernels make_kernels(const char* name) {
  return Kernels{name,
                 &impl::fft_pass<A>,
                 &impl::fft_run<A>,
                 &impl::caxpy_acc<A>,
                 &impl::caxpy_sub<A>,
                 &impl::cmac<A>,
                 &impl::cmacn<A>,
                 &impl::cacc<A>,
                 &impl::cmul_ew<A>,
                 &impl::cmatvec<A>,
                 &impl::hermitian<A>,
                 &impl::beam_gains<A>,
                 &impl::erfc_sqrt<A>,
                 &impl::cdiv<A>,
                 &impl::zf_pinv<A>,
                 &impl::viterbi_acs<A>};
}

}  // namespace jmb::simd
