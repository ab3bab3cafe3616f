// Per-architecture batch primitives: a uniform register-level vocabulary
// (load/store, add/sub, complex multiply, compare/select) over which the
// shared kernel templates in kernels_impl.h are written once and
// instantiated per backend.
//
// Bit-identity rules every arch must obey:
//  - cmul(a, b) performs, per complex lane, exactly
//        re = ar*br - ai*bi;  im = ar*bi + ai*br;
//    as four IEEE multiplies, one subtraction-equivalent and one
//    addition. Vector archs realize the subtraction as x + (-y) via a
//    sign-bit XOR, which IEEE 754 defines to be bitwise equal to x - y.
//  - No FMA anywhere (the TUs additionally compile with
//    -ffp-contract=off so scalar tails cannot be contracted either).
//  - Lanes are independent: no horizontal operations, no reassociation.
//  - rsquare_root is the correctly rounded IEEE square root on every arch,
//    and rindex truncates toward zero as a C++ cast to int does.
//  - rgather and rgather_rows only move doubles (loads and shuffles).
//  - rdiv is the correctly rounded IEEE quotient; rabs and rneg only
//    clear or flip the sign bit.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__SSE2__)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace jmb::simd {

/// Reference backend: one complex lane, plain double arithmetic. Every
/// other arch must match it bitwise lane by lane.
struct ScalarArch {
  static constexpr std::size_t kLanes = 1;      ///< complex lanes
  static constexpr std::size_t kRealLanes = 1;  ///< real (double) lanes
  struct CReg {
    double re, im;
  };
  using RReg = double;
  using MReg = bool;
  using IReg = std::int32_t;  ///< one table index per real lane

  static CReg cload(const double* p) { return {p[0], p[1]}; }
  static void cstore(double* p, CReg a) {
    p[0] = a.re;
    p[1] = a.im;
  }
  static CReg cbroadcast(double re, double im) { return {re, im}; }
  static CReg cgather(const double* p, std::size_t) { return cload(p); }
  static void cscatter(double* p, std::size_t, CReg a) { cstore(p, a); }
  /// Load 2*kLanes contiguous complex at p; even complex indices into
  /// `ev`, odd into `od`. cinterleave2 is the exact inverse store.
  static void cdeinterleave2(const double* p, CReg& ev, CReg& od) {
    ev = cload(p);
    od = cload(p + 2);
  }
  static void cinterleave2(double* p, CReg ev, CReg od) {
    cstore(p, ev);
    cstore(p + 2, od);
  }
  static CReg cadd(CReg a, CReg b) { return {a.re + b.re, a.im + b.im}; }
  static CReg csub(CReg a, CReg b) { return {a.re - b.re, a.im - b.im}; }
  static CReg cmul(CReg a, CReg b) {
    return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
  }
  static CReg cconj(CReg a) { return {a.re, -a.im}; }

  static RReg rload(const double* p) { return *p; }
  static void rstore(double* p, RReg a) { *p = a; }
  static RReg rbroadcast(double v) { return v; }
  static RReg radd(RReg a, RReg b) { return a + b; }
  static RReg rsub(RReg a, RReg b) { return a - b; }
  static RReg rmul(RReg a, RReg b) { return a * b; }
  static RReg rdiv(RReg a, RReg b) { return a / b; }
  static RReg rabs(RReg a) { return std::fabs(a); }
  static RReg rneg(RReg a) { return -a; }
  static MReg rcmp_gt(RReg a, RReg b) { return a > b; }
  static MReg rcmp_le(RReg a, RReg b) { return a <= b; }
  static MReg rcmp_eq(RReg a, RReg b) { return a == b; }
  static MReg mand(MReg a, MReg b) { return a && b; }
  static MReg mor(MReg a, MReg b) { return a || b; }
  static RReg rselect(MReg m, RReg a, RReg b) { return m ? a : b; }
  static unsigned mask_bits(MReg m) { return m ? 1u : 0u; }
  static RReg rsquare_root(RReg a) { return std::sqrt(a); }
  /// Truncate each lane to an index; the lanes must lie in (-2^31, 2^31).
  static IReg rindex(RReg a) { return static_cast<IReg>(a); }
  static RReg rindex_to_real(IReg i) { return static_cast<double>(i); }
  /// Store each lane's index to out[lane].
  static void istore(std::int32_t* out, IReg i) { *out = i; }
  /// Lane l of the result is *p[l] (one pointer per real lane).
  static RReg rgather(const double* const* p) { return *p[0]; }
  /// Eight consecutive doubles per lane, transposed: lane l of out[d] is
  /// p[l][d], for d in [0, 8).
  static void rgather_rows(const double* const* p, RReg* out) {
    for (std::size_t d = 0; d < 8; ++d) out[d] = p[0][d];
  }
  static void deinterleave(const double* p, RReg& even, RReg& odd) {
    even = p[0];
    odd = p[1];
  }
};

#if defined(__SSE2__)
/// SSE2: one complex lane per __m128d; re and im advance in lockstep.
struct Sse2Arch {
  static constexpr std::size_t kLanes = 1;
  static constexpr std::size_t kRealLanes = 2;
  using CReg = __m128d;
  using RReg = __m128d;
  using MReg = __m128d;
  using IReg = __m128i;  ///< two int32 indices in the low half

  static CReg cload(const double* p) { return _mm_loadu_pd(p); }
  static void cstore(double* p, CReg a) { _mm_storeu_pd(p, a); }
  static CReg cbroadcast(double re, double im) { return _mm_setr_pd(re, im); }
  static CReg cgather(const double* p, std::size_t) { return cload(p); }
  static void cscatter(double* p, std::size_t, CReg a) { cstore(p, a); }
  static void cdeinterleave2(const double* p, CReg& ev, CReg& od) {
    ev = _mm_loadu_pd(p);
    od = _mm_loadu_pd(p + 2);
  }
  static void cinterleave2(double* p, CReg ev, CReg od) {
    _mm_storeu_pd(p, ev);
    _mm_storeu_pd(p + 2, od);
  }
  static CReg cadd(CReg a, CReg b) { return _mm_add_pd(a, b); }
  static CReg csub(CReg a, CReg b) { return _mm_sub_pd(a, b); }
  static CReg cmul(CReg a, CReg b) {
    const __m128d ar = _mm_unpacklo_pd(a, a);
    const __m128d ai = _mm_unpackhi_pd(a, a);
    const __m128d bswap = _mm_shuffle_pd(b, b, 0x1);
    const __m128d t1 = _mm_mul_pd(ar, b);      // [ar*br, ar*bi]
    const __m128d t2 = _mm_mul_pd(ai, bswap);  // [ai*bi, ai*br]
    return _mm_add_pd(t1, _mm_xor_pd(t2, _mm_setr_pd(-0.0, 0.0)));
  }
  static CReg cconj(CReg a) {
    return _mm_xor_pd(a, _mm_setr_pd(0.0, -0.0));
  }

  static RReg rload(const double* p) { return _mm_loadu_pd(p); }
  static void rstore(double* p, RReg a) { _mm_storeu_pd(p, a); }
  static RReg rbroadcast(double v) { return _mm_set1_pd(v); }
  static RReg radd(RReg a, RReg b) { return _mm_add_pd(a, b); }
  static RReg rsub(RReg a, RReg b) { return _mm_sub_pd(a, b); }
  static RReg rmul(RReg a, RReg b) { return _mm_mul_pd(a, b); }
  static RReg rdiv(RReg a, RReg b) { return _mm_div_pd(a, b); }
  static RReg rabs(RReg a) { return _mm_andnot_pd(_mm_set1_pd(-0.0), a); }
  static RReg rneg(RReg a) { return _mm_xor_pd(a, _mm_set1_pd(-0.0)); }
  static MReg rcmp_gt(RReg a, RReg b) { return _mm_cmpgt_pd(a, b); }
  static MReg rcmp_le(RReg a, RReg b) { return _mm_cmple_pd(a, b); }
  static MReg rcmp_eq(RReg a, RReg b) { return _mm_cmpeq_pd(a, b); }
  static MReg mand(MReg a, MReg b) { return _mm_and_pd(a, b); }
  static MReg mor(MReg a, MReg b) { return _mm_or_pd(a, b); }
  static RReg rselect(MReg m, RReg a, RReg b) {
    return _mm_or_pd(_mm_and_pd(m, a), _mm_andnot_pd(m, b));
  }
  static unsigned mask_bits(MReg m) {
    return static_cast<unsigned>(_mm_movemask_pd(m));
  }
  static RReg rsquare_root(RReg a) { return _mm_sqrt_pd(a); }
  static IReg rindex(RReg a) { return _mm_cvttpd_epi32(a); }
  static RReg rindex_to_real(IReg i) { return _mm_cvtepi32_pd(i); }
  static void istore(std::int32_t* out, IReg i) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out), i);
  }
  static RReg rgather(const double* const* p) {
    return _mm_loadh_pd(_mm_load_sd(p[0]), p[1]);
  }
  static void rgather_rows(const double* const* p, RReg* out) {
    for (std::size_t d = 0; d < 8; d += 2) {
      const __m128d a = _mm_loadu_pd(p[0] + d);
      const __m128d b = _mm_loadu_pd(p[1] + d);
      out[d] = _mm_unpacklo_pd(a, b);
      out[d + 1] = _mm_unpackhi_pd(a, b);
    }
  }
  static void deinterleave(const double* p, RReg& even, RReg& odd) {
    const __m128d a = _mm_loadu_pd(p);
    const __m128d b = _mm_loadu_pd(p + 2);
    even = _mm_unpacklo_pd(a, b);
    odd = _mm_unpackhi_pd(a, b);
  }
};
#endif  // __SSE2__

#if defined(__AVX2__)
/// AVX2: two complex lanes per __m256d.
struct Avx2Arch {
  static constexpr std::size_t kLanes = 2;
  static constexpr std::size_t kRealLanes = 4;
  using CReg = __m256d;
  using RReg = __m256d;
  using MReg = __m256d;
  using IReg = __m128i;  ///< four int32 indices

  static CReg cload(const double* p) { return _mm256_loadu_pd(p); }
  static void cstore(double* p, CReg a) { _mm256_storeu_pd(p, a); }
  static CReg cbroadcast(double re, double im) {
    return _mm256_setr_pd(re, im, re, im);
  }
  /// Two complex lanes from p and p + stride doubles.
  static CReg cgather(const double* p, std::size_t stride) {
    return _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(p)),
                                _mm_loadu_pd(p + stride), 1);
  }
  static void cscatter(double* p, std::size_t stride, CReg a) {
    _mm_storeu_pd(p, _mm256_castpd256_pd128(a));
    _mm_storeu_pd(p + stride, _mm256_extractf128_pd(a, 1));
  }
  static void cdeinterleave2(const double* p, CReg& ev, CReg& od) {
    const __m256d a = _mm256_loadu_pd(p);      // [e0 o0]
    const __m256d b = _mm256_loadu_pd(p + 4);  // [e1 o1]
    ev = _mm256_permute2f128_pd(a, b, 0x20);   // [e0 e1]
    od = _mm256_permute2f128_pd(a, b, 0x31);   // [o0 o1]
  }
  static void cinterleave2(double* p, CReg ev, CReg od) {
    _mm256_storeu_pd(p, _mm256_permute2f128_pd(ev, od, 0x20));
    _mm256_storeu_pd(p + 4, _mm256_permute2f128_pd(ev, od, 0x31));
  }
  static CReg cadd(CReg a, CReg b) { return _mm256_add_pd(a, b); }
  static CReg csub(CReg a, CReg b) { return _mm256_sub_pd(a, b); }
  static CReg cmul(CReg a, CReg b) {
    const __m256d ar = _mm256_movedup_pd(a);
    const __m256d ai = _mm256_permute_pd(a, 0xF);
    const __m256d bswap = _mm256_permute_pd(b, 0x5);
    const __m256d t1 = _mm256_mul_pd(ar, b);
    const __m256d t2 = _mm256_mul_pd(ai, bswap);
    return _mm256_add_pd(
        t1, _mm256_xor_pd(t2, _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0)));
  }
  static CReg cconj(CReg a) {
    return _mm256_xor_pd(a, _mm256_setr_pd(0.0, -0.0, 0.0, -0.0));
  }

  static RReg rload(const double* p) { return _mm256_loadu_pd(p); }
  static void rstore(double* p, RReg a) { _mm256_storeu_pd(p, a); }
  static RReg rbroadcast(double v) { return _mm256_set1_pd(v); }
  static RReg radd(RReg a, RReg b) { return _mm256_add_pd(a, b); }
  static RReg rsub(RReg a, RReg b) { return _mm256_sub_pd(a, b); }
  static RReg rmul(RReg a, RReg b) { return _mm256_mul_pd(a, b); }
  static RReg rdiv(RReg a, RReg b) { return _mm256_div_pd(a, b); }
  static RReg rabs(RReg a) {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
  }
  static RReg rneg(RReg a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
  static MReg rcmp_gt(RReg a, RReg b) {
    return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
  }
  static MReg rcmp_le(RReg a, RReg b) {
    return _mm256_cmp_pd(a, b, _CMP_LE_OQ);
  }
  static MReg rcmp_eq(RReg a, RReg b) {
    return _mm256_cmp_pd(a, b, _CMP_EQ_OQ);
  }
  static MReg mand(MReg a, MReg b) { return _mm256_and_pd(a, b); }
  static MReg mor(MReg a, MReg b) { return _mm256_or_pd(a, b); }
  static RReg rselect(MReg m, RReg a, RReg b) {
    return _mm256_blendv_pd(b, a, m);
  }
  static unsigned mask_bits(MReg m) {
    return static_cast<unsigned>(_mm256_movemask_pd(m));
  }
  static RReg rsquare_root(RReg a) { return _mm256_sqrt_pd(a); }
  static IReg rindex(RReg a) { return _mm256_cvttpd_epi32(a); }
  static RReg rindex_to_real(IReg i) { return _mm256_cvtepi32_pd(i); }
  static void istore(std::int32_t* out, IReg i) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), i);
  }
  static RReg rgather(const double* const* p) {
    return _mm256_setr_pd(*p[0], *p[1], *p[2], *p[3]);
  }
  /// Two 4x4 transposes.
  static void rgather_rows(const double* const* p, RReg* out) {
    for (std::size_t h = 0; h < 8; h += 4) {
      const __m256d r0 = _mm256_loadu_pd(p[0] + h);
      const __m256d r1 = _mm256_loadu_pd(p[1] + h);
      const __m256d r2 = _mm256_loadu_pd(p[2] + h);
      const __m256d r3 = _mm256_loadu_pd(p[3] + h);
      const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // [00 10 02 12]
      const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // [01 11 03 13]
      const __m256d t2 = _mm256_unpacklo_pd(r2, r3);  // [20 30 22 32]
      const __m256d t3 = _mm256_unpackhi_pd(r2, r3);  // [21 31 23 33]
      out[h] = _mm256_permute2f128_pd(t0, t2, 0x20);
      out[h + 1] = _mm256_permute2f128_pd(t1, t3, 0x20);
      out[h + 2] = _mm256_permute2f128_pd(t0, t2, 0x31);
      out[h + 3] = _mm256_permute2f128_pd(t1, t3, 0x31);
    }
  }
  static void deinterleave(const double* p, RReg& even, RReg& odd) {
    const __m256d a = _mm256_loadu_pd(p);      // [p0 p1 p2 p3]
    const __m256d b = _mm256_loadu_pd(p + 4);  // [p4 p5 p6 p7]
    const __m256d lo = _mm256_unpacklo_pd(a, b);  // [p0 p4 p2 p6]
    const __m256d hi = _mm256_unpackhi_pd(a, b);  // [p1 p5 p3 p7]
    even = _mm256_permute4x64_pd(lo, _MM_SHUFFLE(3, 1, 2, 0));
    odd = _mm256_permute4x64_pd(hi, _MM_SHUFFLE(3, 1, 2, 0));
  }
};
#endif  // __AVX2__

#if defined(__AVX512F__)
/// AVX-512F: four complex lanes per __m512d. Bitwise float ops go through
/// the integer domain (xor_pd needs AVX512DQ; xor_epi64 is F).
struct Avx512Arch {
  static constexpr std::size_t kLanes = 4;
  static constexpr std::size_t kRealLanes = 8;
  using CReg = __m512d;
  using RReg = __m512d;
  using MReg = __mmask8;
  using IReg = __m256i;  ///< eight int32 indices

  static __m512d xor_pd(__m512d a, __m512d b) {
    return _mm512_castsi512_pd(_mm512_xor_epi64(_mm512_castpd_si512(a),
                                                _mm512_castpd_si512(b)));
  }

  static CReg cload(const double* p) { return _mm512_loadu_pd(p); }
  static void cstore(double* p, CReg a) { _mm512_storeu_pd(p, a); }
  static CReg cbroadcast(double re, double im) {
    return _mm512_setr_pd(re, im, re, im, re, im, re, im);
  }
  static CReg cgather(const double* p, std::size_t stride) {
    const __m256d lo = _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(p)), _mm_loadu_pd(p + stride), 1);
    const __m256d hi = _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(p + 2 * stride)),
        _mm_loadu_pd(p + 3 * stride), 1);
    return _mm512_insertf64x4(_mm512_castpd256_pd512(lo), hi, 1);
  }
  static void cscatter(double* p, std::size_t stride, CReg a) {
    // extractf64x2 needs AVX512DQ; stay within F via the 256-bit halves.
    const __m256d lo = _mm512_castpd512_pd256(a);
    const __m256d hi = _mm512_extractf64x4_pd(a, 1);
    _mm_storeu_pd(p, _mm256_castpd256_pd128(lo));
    _mm_storeu_pd(p + stride, _mm256_extractf128_pd(lo, 1));
    _mm_storeu_pd(p + 2 * stride, _mm256_castpd256_pd128(hi));
    _mm_storeu_pd(p + 3 * stride, _mm256_extractf128_pd(hi, 1));
  }
  static void cdeinterleave2(const double* p, CReg& ev, CReg& od) {
    const __m512d a = _mm512_loadu_pd(p);      // [e0 o0 e1 o1]
    const __m512d b = _mm512_loadu_pd(p + 8);  // [e2 o2 e3 o3]
    ev = _mm512_shuffle_f64x2(a, b, _MM_SHUFFLE(2, 0, 2, 0));
    od = _mm512_shuffle_f64x2(a, b, _MM_SHUFFLE(3, 1, 3, 1));
  }
  static void cinterleave2(double* p, CReg ev, CReg od) {
    const __m512i idx_lo = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    const __m512i idx_hi = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    _mm512_storeu_pd(p, _mm512_permutex2var_pd(ev, idx_lo, od));
    _mm512_storeu_pd(p + 8, _mm512_permutex2var_pd(ev, idx_hi, od));
  }
  static CReg cadd(CReg a, CReg b) { return _mm512_add_pd(a, b); }
  static CReg csub(CReg a, CReg b) { return _mm512_sub_pd(a, b); }
  static CReg cmul(CReg a, CReg b) {
    const __m512d ar = _mm512_movedup_pd(a);
    const __m512d ai = _mm512_permute_pd(a, 0xFF);
    const __m512d bswap = _mm512_permute_pd(b, 0x55);
    const __m512d t1 = _mm512_mul_pd(ar, b);
    const __m512d t2 = _mm512_mul_pd(ai, bswap);
    return _mm512_add_pd(
        t1, xor_pd(t2, _mm512_setr_pd(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0,
                                      0.0)));
  }
  static CReg cconj(CReg a) {
    return xor_pd(
        a, _mm512_setr_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0));
  }

  static RReg rload(const double* p) { return _mm512_loadu_pd(p); }
  static void rstore(double* p, RReg a) { _mm512_storeu_pd(p, a); }
  static RReg rbroadcast(double v) { return _mm512_set1_pd(v); }
  static RReg radd(RReg a, RReg b) { return _mm512_add_pd(a, b); }
  static RReg rsub(RReg a, RReg b) { return _mm512_sub_pd(a, b); }
  static RReg rmul(RReg a, RReg b) { return _mm512_mul_pd(a, b); }
  static RReg rdiv(RReg a, RReg b) { return _mm512_div_pd(a, b); }
  static RReg rabs(RReg a) { return _mm512_abs_pd(a); }
  static RReg rneg(RReg a) { return xor_pd(a, _mm512_set1_pd(-0.0)); }
  static MReg rcmp_gt(RReg a, RReg b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ);
  }
  static MReg rcmp_le(RReg a, RReg b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ);
  }
  static MReg rcmp_eq(RReg a, RReg b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ);
  }
  static MReg mand(MReg a, MReg b) { return static_cast<MReg>(a & b); }
  static MReg mor(MReg a, MReg b) { return static_cast<MReg>(a | b); }
  static RReg rselect(MReg m, RReg a, RReg b) {
    return _mm512_mask_blend_pd(m, b, a);
  }
  static unsigned mask_bits(MReg m) { return static_cast<unsigned>(m); }
  static RReg rsquare_root(RReg a) { return _mm512_sqrt_pd(a); }
  static IReg rindex(RReg a) { return _mm512_cvttpd_epi32(a); }
  static RReg rindex_to_real(IReg i) { return _mm512_cvtepi32_pd(i); }
  static void istore(std::int32_t* out, IReg i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), i);
  }
  static RReg rgather(const double* const* p) {
    return _mm512_setr_pd(*p[0], *p[1], *p[2], *p[3], *p[4], *p[5], *p[6],
                          *p[7]);
  }
  /// An 8x8 transpose: pairs of rows interleaved, then 128-bit blocks
  /// shuffled twice.
  static void rgather_rows(const double* const* p, RReg* out) {
    __m512d t[8];
    for (std::size_t r = 0; r < 8; r += 2) {
      const __m512d a = _mm512_loadu_pd(p[r]);
      const __m512d b = _mm512_loadu_pd(p[r + 1]);
      t[r] = _mm512_unpacklo_pd(a, b);      // columns 0 2 4 6 of rows r, r+1
      t[r + 1] = _mm512_unpackhi_pd(a, b);  // columns 1 3 5 7
    }
    constexpr int kEven = _MM_SHUFFLE(2, 0, 2, 0);
    constexpr int kOdd = _MM_SHUFFLE(3, 1, 3, 1);
    for (std::size_t c = 0; c < 2; ++c) {  // even, then odd columns
      // [col c, c+4 of rows 0-3] and [col c+2, c+6 of rows 0-3]; then 4-7.
      const __m512d u0 = _mm512_shuffle_f64x2(t[c], t[2 + c], kEven);
      const __m512d u1 = _mm512_shuffle_f64x2(t[c], t[2 + c], kOdd);
      const __m512d u2 = _mm512_shuffle_f64x2(t[4 + c], t[6 + c], kEven);
      const __m512d u3 = _mm512_shuffle_f64x2(t[4 + c], t[6 + c], kOdd);
      out[c] = _mm512_shuffle_f64x2(u0, u2, kEven);
      out[c + 4] = _mm512_shuffle_f64x2(u0, u2, kOdd);
      out[c + 2] = _mm512_shuffle_f64x2(u1, u3, kEven);
      out[c + 6] = _mm512_shuffle_f64x2(u1, u3, kOdd);
    }
  }
  static void deinterleave(const double* p, RReg& even, RReg& odd) {
    const __m512d a = _mm512_loadu_pd(p);
    const __m512d b = _mm512_loadu_pd(p + 8);
    const __m512i idx_e = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i idx_o = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    even = _mm512_permutex2var_pd(a, idx_e, b);
    odd = _mm512_permutex2var_pd(a, idx_o, b);
  }
};
#endif  // __AVX512F__

#if defined(__aarch64__)
/// NEON (aarch64): one complex lane per float64x2_t.
struct NeonArch {
  static constexpr std::size_t kLanes = 1;
  static constexpr std::size_t kRealLanes = 2;
  using CReg = float64x2_t;
  using RReg = float64x2_t;
  using MReg = uint64x2_t;
  using IReg = int64x2_t;

  static float64x2_t xor_f64(float64x2_t a, uint64x2_t mask) {
    return vreinterpretq_f64_u64(veorq_u64(vreinterpretq_u64_f64(a), mask));
  }

  static CReg cload(const double* p) { return vld1q_f64(p); }
  static void cstore(double* p, CReg a) { vst1q_f64(p, a); }
  static CReg cbroadcast(double re, double im) {
    const double v[2] = {re, im};
    return vld1q_f64(v);
  }
  static CReg cgather(const double* p, std::size_t) { return cload(p); }
  static void cscatter(double* p, std::size_t, CReg a) { cstore(p, a); }
  static void cdeinterleave2(const double* p, CReg& ev, CReg& od) {
    ev = vld1q_f64(p);
    od = vld1q_f64(p + 2);
  }
  static void cinterleave2(double* p, CReg ev, CReg od) {
    vst1q_f64(p, ev);
    vst1q_f64(p + 2, od);
  }
  static CReg cadd(CReg a, CReg b) { return vaddq_f64(a, b); }
  static CReg csub(CReg a, CReg b) { return vsubq_f64(a, b); }
  static CReg cmul(CReg a, CReg b) {
    const float64x2_t ar = vdupq_laneq_f64(a, 0);
    const float64x2_t ai = vdupq_laneq_f64(a, 1);
    const float64x2_t bswap = vextq_f64(b, b, 1);
    const float64x2_t t1 = vmulq_f64(ar, b);
    const float64x2_t t2 = vmulq_f64(ai, bswap);
    const uint64x2_t neg_even = {0x8000000000000000ull, 0ull};
    return vaddq_f64(t1, xor_f64(t2, neg_even));
  }
  static CReg cconj(CReg a) {
    const uint64x2_t neg_odd = {0ull, 0x8000000000000000ull};
    return xor_f64(a, neg_odd);
  }

  static RReg rload(const double* p) { return vld1q_f64(p); }
  static void rstore(double* p, RReg a) { vst1q_f64(p, a); }
  static RReg rbroadcast(double v) { return vdupq_n_f64(v); }
  static RReg radd(RReg a, RReg b) { return vaddq_f64(a, b); }
  static RReg rsub(RReg a, RReg b) { return vsubq_f64(a, b); }
  static RReg rmul(RReg a, RReg b) { return vmulq_f64(a, b); }
  static RReg rdiv(RReg a, RReg b) { return vdivq_f64(a, b); }
  static RReg rabs(RReg a) { return vabsq_f64(a); }
  static RReg rneg(RReg a) { return vnegq_f64(a); }
  static MReg rcmp_gt(RReg a, RReg b) { return vcgtq_f64(a, b); }
  static MReg rcmp_le(RReg a, RReg b) { return vcleq_f64(a, b); }
  static MReg rcmp_eq(RReg a, RReg b) { return vceqq_f64(a, b); }
  static MReg mand(MReg a, MReg b) { return vandq_u64(a, b); }
  static MReg mor(MReg a, MReg b) { return vorrq_u64(a, b); }
  static RReg rselect(MReg m, RReg a, RReg b) { return vbslq_f64(m, a, b); }
  static RReg rsquare_root(RReg a) { return vsqrtq_f64(a); }
  static IReg rindex(RReg a) { return vcvtq_s64_f64(a); }
  static RReg rindex_to_real(IReg i) { return vcvtq_f64_s64(i); }
  static void istore(std::int32_t* out, IReg i) {
    vst1_s32(out, vmovn_s64(i));
  }
  static RReg rgather(const double* const* p) {
    return vsetq_lane_f64(*p[1], vdupq_n_f64(*p[0]), 1);
  }
  static void rgather_rows(const double* const* p, RReg* out) {
    for (std::size_t d = 0; d < 8; d += 2) {
      const float64x2_t a = vld1q_f64(p[0] + d);
      const float64x2_t b = vld1q_f64(p[1] + d);
      out[d] = vzip1q_f64(a, b);
      out[d + 1] = vzip2q_f64(a, b);
    }
  }
  static unsigned mask_bits(MReg m) {
    return static_cast<unsigned>(vgetq_lane_u64(m, 0) & 1u) |
           (static_cast<unsigned>(vgetq_lane_u64(m, 1) & 1u) << 1);
  }
  static void deinterleave(const double* p, RReg& even, RReg& odd) {
    const float64x2x2_t t = vld2q_f64(p);
    even = t.val[0];
    odd = t.val[1];
  }
};
#endif  // __aarch64__

}  // namespace jmb::simd
