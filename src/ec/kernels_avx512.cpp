/**
 * @file
 * 512-bit AVX-512 kernels. Requires F (loads, ternlog XOR, VPROLVQ) and
 * BW (the 512-bit VPSHUFB); dispatch.cpp checks both before selecting
 * the tier. The expansion kernels hold a whole 512-byte period of the
 * image in eight registers.
 *
 * Compiled with -mavx512f -mavx512bw (see src/ec/CMakeLists.txt).
 */
#if defined(__x86_64__) || defined(__i386__)

#include "ec/gf256.hpp"
#include "ec/kernels.hpp"

#include <immintrin.h>

namespace declust::ec {

void
xorIntoAvx512(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 128 <= n; i += 128) {
        __m512i d0 = _mm512_loadu_si512(dst + i);
        __m512i d1 = _mm512_loadu_si512(dst + i + 64);
        __m512i s0 = _mm512_loadu_si512(src + i);
        __m512i s1 = _mm512_loadu_si512(src + i + 64);
        _mm512_storeu_si512(dst + i, _mm512_xor_si512(d0, s0));
        _mm512_storeu_si512(dst + i + 64, _mm512_xor_si512(d1, s1));
    }
    for (; i + 64 <= n; i += 64) {
        __m512i d = _mm512_loadu_si512(dst + i);
        __m512i s = _mm512_loadu_si512(src + i);
        _mm512_storeu_si512(dst + i, _mm512_xor_si512(d, s));
    }
    for (; i < n; ++i)
        dst[i] ^= src[i];
}

namespace {

/** dst = c * src, or dst ^= c * src when @p Add, over @p n bytes. */
template <bool Add>
inline void
gfMulLoop512(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
             std::size_t n)
{
    // Broadcast and rotate (below) use their zero-masked forms under a
    // full mask: the same instructions, but GCC 12's headers give the
    // plain forms an undefined pass-through that trips -Wuninitialized.
    const GfTables &t = gfTables();
    const __m512i tblLo = _mm512_maskz_broadcast_i32x4(
        0xffff, _mm_loadu_si128((const __m128i *)t.shuffleLo[c]));
    const __m512i tblHi = _mm512_maskz_broadcast_i32x4(
        0xffff, _mm_loadu_si128((const __m128i *)t.shuffleHi[c]));
    const __m512i nibMask = _mm512_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        const __m512i x = _mm512_loadu_si512(src + i);
        const __m512i lo = _mm512_and_si512(x, nibMask);
        const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(x, 4), nibMask);
        __m512i p = _mm512_xor_si512(_mm512_shuffle_epi8(tblLo, lo),
                                     _mm512_shuffle_epi8(tblHi, hi));
        if constexpr (Add)
            p = _mm512_xor_si512(p, _mm512_loadu_si512(dst + i));
        _mm512_storeu_si512(dst + i, p);
    }
    const std::uint8_t *row = t.mul[c];
    for (; i < n; ++i)
        dst[i] = Add ? dst[i] ^ row[src[i]] : row[src[i]];
}

/**
 * Call f(offset, image register) for each 64-byte block of the first
 * @p full bytes (a whole number of periods) of v's image. The period
 * lives in eight registers: register k holds words 8k..8k+7, word i
 * rotated left by 29 i (VPROLVQ takes each count mod 64).
 */
template <typename F>
inline void
forEachImageBlock(std::uint64_t v, std::size_t full, F &&f)
{
    constexpr long long s = kExpandStride;
    const __m512i vv = _mm512_set1_epi64(static_cast<long long>(v));
    __m512i cnt =
        _mm512_setr_epi64(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s);
    __m512i p[8];
#pragma GCC unroll 8
    for (int k = 0; k < 8; ++k) {
        p[k] = _mm512_maskz_rolv_epi64(0xff, vv, cnt);
        cnt = _mm512_add_epi64(cnt, _mm512_set1_epi64(8 * s));
    }
    for (std::size_t at = 0; at < full; at += kExpandPeriodBytes) {
#pragma GCC unroll 8
        for (int k = 0; k < 8; ++k)
            f(at + 64 * k, p[k]);
    }
}

} // namespace

void
gfMulAvx512(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
            std::size_t n)
{
    gfMulLoop512<false>(dst, src, c, n);
}

void
gfMulAddAvx512(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
               std::size_t n)
{
    gfMulLoop512<true>(dst, src, c, n);
}

// The image restarts at every period boundary, so the expansion kernels
// run whole periods here and leave the sub-period tail (a prefix image)
// to the scalar kernel.

void
expandAvx512(std::uint8_t *dst, std::uint64_t v, std::size_t n)
{
    const std::size_t full = n - n % kExpandPeriodBytes;
    forEachImageBlock(v, full, [dst](std::size_t at, __m512i w) {
        _mm512_storeu_si512(dst + at, w);
    });
    expandScalar(dst + full, v, n - full);
}

bool
matchesExpansionAvx512(const std::uint8_t *src, std::uint64_t v,
                       std::size_t n)
{
    const std::size_t full = n - n % kExpandPeriodBytes;
    __m512i diff = _mm512_setzero_si512();
    forEachImageBlock(v, full, [src, &diff](std::size_t at, __m512i w) {
        // diff |= src ^ image, as one ternary-logic op.
        diff = _mm512_ternarylogic_epi64(diff, _mm512_loadu_si512(src + at),
                                         w, 0xf6);
    });
    return _mm512_test_epi64_mask(diff, diff) == 0 &&
           matchesExpansionScalar(src + full, v, n - full);
}

} // namespace declust::ec

#endif // x86
