// Shared kernel bodies, written once over the arch primitives in batch.h
// and instantiated per backend by the kernels_*.cpp TUs.
//
// Every kernel mirrors the scalar reference loop it replaces (named in
// each comment) operation for operation within a lane; vector lanes only
// batch across independent elements, and every tail falls back to
// ScalarArch running the same body (beam_gains and erfc_sqrt instead
// rerun their last full block over the tail, or hand a run shorter than
// one block to the scalar table). That is what makes the dispatch
// bitwise-invisible.
#pragma once

#include <cstddef>
#include <cstdint>

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
                 &impl::viterbi_acs<A>};
}

}  // namespace jmb::simd
