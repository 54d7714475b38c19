// hp_kernel_simd_avx2.cpp — the AVX2 lane decomposer. The ONLY translation
// unit compiled with -mavx2 (CMake scopes the flag to this file and builds
// it only for HPSUM_SIMD=AUTO), so AVX2 instructions can never leak into
// code that runs before the dispatcher's CPU check. 4 x u64 lanes, two
// steps per kWidth batch, with the variable 64-bit shifts
// (vpsllvq/vpsrlvq) that the mantissa split needs and baseline x86-64
// lacks. The batched driver and the bit-identity argument live in
// hp_kernel_simd_deposit.hpp.

#include "core/hp_kernel_simd.hpp"

#include <immintrin.h>

#include "core/hp_kernel.hpp"
#include "core/hp_kernel_simd_deposit.hpp"

namespace hpsum::kernel::simd::detail {

namespace {

/// Sums the four 64-bit lanes of `v` into one scalar, exactly, given every
/// lane is below 2^62 (the callers' lanes are below 2^56): two paddq steps
/// cannot wrap.
[[nodiscard]] inline std::uint64_t hsum_epi64(__m256i v) noexcept {
  const __m128i s =
      _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  const __m128i t = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(t));
}

/// Decomposes kWidth doubles: biased exponent extract, in-window test,
/// mantissa split into the lo/hi limb words, and the lane sign mask. Slow
/// lanes produce garbage words (never consumed: accumulate_batches punts
/// the batch). The window test uses strict compares on shifted bounds (AVX2
/// has no 64-bit >=): be >= be_lo becomes be > be_lo-1, be <= be_hi
/// becomes be_hi+1 > be — all values are small positive integers, so the
/// +-1 never wraps. pmax, the uniformity test, and the four plane-delta
/// sums all stay in the vector domain — no per-lane extraction on the hot
/// path. For pmax, the biased exponent fits 32 bits, so an epu32 max over
/// the 64-bit lanes — whose high halves are zero — is exact. The uniform
/// fold sign-splits the words in registers (andnot/and with the sign
/// mask); for the lo-word sums, each lane is split at bit 32 and the
/// halves are summed separately (eight 32-bit pieces cannot wrap a 64-bit
/// lane), then recombined in U128; the hi straddle words are below 2^53,
/// so they sum directly.
struct Avx2Decompose {
  void operator()(const double* x, const Window& w,
                  LaneBatch& b) const noexcept {
    const __m256i belo = _mm256_set1_epi64x(w.be_lo - 1);
    const __m256i behi = _mm256_set1_epi64x(w.be_hi + 1);
    const __m256i pbias = _mm256_set1_epi64x(w.pbias);
    const __m256i mask52 =
        _mm256_set1_epi64x(static_cast<long long>(kMask52));
    const __m256i bit52 = _mm256_set1_epi64x(static_cast<long long>(kBit52));
    const __m256i c63 = _mm256_set1_epi64x(63);
    const __m256i emask = _mm256_set1_epi64x(0x7FF);
    const __m256i zero = _mm256_setzero_si256();
    __m256i okacc = _mm256_set1_epi64x(-1);
    __m256i bemax = zero;
    __m256i lq01[2];
    __m256i lo01[2];
    __m256i hi01[2];
    __m256i neg01[2];
    unsigned negbits = 0;
    for (int h = 0; h < kWidth; h += 4) {
      const __m256i bits =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + h));
      const __m256i be =
          _mm256_and_si256(_mm256_srli_epi64(bits, 52), emask);
      const __m256i ok = _mm256_and_si256(_mm256_cmpgt_epi64(be, belo),
                                          _mm256_cmpgt_epi64(behi, be));
      const __m256i m53 =
          _mm256_or_si256(_mm256_and_si256(bits, mask52), bit52);
      const __m256i p = _mm256_add_epi64(be, pbias);
      const __m256i off = _mm256_and_si256(p, c63);
      const __m256i lov = _mm256_sllv_epi64(m53, off);
      const __m256i hiv = _mm256_srlv_epi64(_mm256_srli_epi64(m53, 1),
                                            _mm256_sub_epi64(c63, off));
      const __m256i lqv = _mm256_srli_epi64(p, 6);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.lo + h), lov);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.hi + h), hiv);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.lq + h), lqv);
      // One bit per lane from the double's sign bit.
      negbits |= static_cast<unsigned>(
                     _mm256_movemask_pd(_mm256_castsi256_pd(bits)))
                 << h;
      okacc = _mm256_and_si256(okacc, ok);
      bemax = _mm256_max_epu32(bemax, be);
      const int half = h / 4;
      lq01[half] = lqv;
      lo01[half] = lov;
      hi01[half] = hiv;
      neg01[half] = _mm256_cmpgt_epi64(zero, bits);  // all-ones if negative
    }
    b.neg = negbits;
    b.all_fast = _mm256_movemask_epi8(okacc) == -1;
    // Horizontal epu32 max (high 32-bit halves are zero, so they never win),
    // then back to the signed lsb position.
    __m128i m = _mm_max_epu32(_mm256_castsi256_si128(bemax),
                              _mm256_extracti128_si256(bemax, 1));
    m = _mm_max_epu32(m, _mm_shuffle_epi32(m, 0x4E));
    m = _mm_max_epu32(m, _mm_shuffle_epi32(m, 0xB1));
    b.pmax = _mm_cvtsi128_si32(m) + w.pbias;
    // uniform <=> every lq lane equals lane 0 of the first half.
    const __m256i lq0 = _mm256_permute4x64_epi64(lq01[0], 0x00);
    const __m256i eq = _mm256_and_si256(_mm256_cmpeq_epi64(lq01[0], lq0),
                                        _mm256_cmpeq_epi64(lq01[1], lq0));
    b.uniform = _mm256_movemask_epi8(eq) == -1;
    if (b.all_fast && b.uniform) {
      const __m256i m32 = _mm256_set1_epi64x(0xFFFFFFFFLL);
      const auto fold_lo = [&](__m256i h0, __m256i h1) -> U128 {
        const __m256i lo32 = _mm256_add_epi64(_mm256_and_si256(h0, m32),
                                              _mm256_and_si256(h1, m32));
        const __m256i hi32 = _mm256_add_epi64(_mm256_srli_epi64(h0, 32),
                                              _mm256_srli_epi64(h1, 32));
        return static_cast<U128>(hsum_epi64(lo32)) +
               (static_cast<U128>(hsum_epi64(hi32)) << 32);
      };
      // Sign split in registers: andnot keeps the positive lanes, and the
      // negative ones.
      const auto pos_of = [&](int half, const __m256i* v) {
        return _mm256_andnot_si256(neg01[half], v[half]);
      };
      const auto neg_of = [&](int half, const __m256i* v) {
        return _mm256_and_si256(neg01[half], v[half]);
      };
      b.sum_lo[0] = fold_lo(pos_of(0, lo01), pos_of(1, lo01));
      b.sum_lo[1] = fold_lo(neg_of(0, lo01), neg_of(1, lo01));
      b.sum_hi[0] =
          hsum_epi64(_mm256_add_epi64(pos_of(0, hi01), pos_of(1, hi01)));
      b.sum_hi[1] =
          hsum_epi64(_mm256_add_epi64(neg_of(0, hi01), neg_of(1, hi01)));
    }
  }
};

}  // namespace

[[nodiscard]] HpStatus accumulate_avx2(util::Limb* a, U128* pos, U128* neg,
                                       int n, int k, int& bound_exp,
                                       int& pending,
                                       std::span<const double> xs) noexcept {
  return accumulate_batches(a, pos, neg, n, k, bound_exp, pending, xs,
                            Avx2Decompose{});
}

}  // namespace hpsum::kernel::simd::detail
