/**
 * @file
 * 256-bit AVX2 kernels. VPSHUFB shuffles within each 128-bit lane, so
 * the GF tables are broadcast to both lanes and the split-table step is
 * identical to the SSE2 one at twice the width. A 512-byte period of
 * the generative image would take all sixteen 256-bit registers, so
 * the expansion kernels build and sweep it in two halves of eight.
 *
 * Compiled with -mavx2 (see src/ec/CMakeLists.txt); selected by
 * dispatch.cpp only when the CPU reports avx2.
 */
#if defined(__x86_64__) || defined(__i386__)

#include "ec/gf256.hpp"
#include "ec/kernels.hpp"

#include <immintrin.h>

namespace declust::ec {

void
xorIntoAvx2(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 128 <= n; i += 128) {
        __m256i d0 = _mm256_loadu_si256((const __m256i *)(dst + i));
        __m256i d1 = _mm256_loadu_si256((const __m256i *)(dst + i + 32));
        __m256i d2 = _mm256_loadu_si256((const __m256i *)(dst + i + 64));
        __m256i d3 = _mm256_loadu_si256((const __m256i *)(dst + i + 96));
        __m256i s0 = _mm256_loadu_si256((const __m256i *)(src + i));
        __m256i s1 = _mm256_loadu_si256((const __m256i *)(src + i + 32));
        __m256i s2 = _mm256_loadu_si256((const __m256i *)(src + i + 64));
        __m256i s3 = _mm256_loadu_si256((const __m256i *)(src + i + 96));
        _mm256_storeu_si256((__m256i *)(dst + i), _mm256_xor_si256(d0, s0));
        _mm256_storeu_si256((__m256i *)(dst + i + 32),
                            _mm256_xor_si256(d1, s1));
        _mm256_storeu_si256((__m256i *)(dst + i + 64),
                            _mm256_xor_si256(d2, s2));
        _mm256_storeu_si256((__m256i *)(dst + i + 96),
                            _mm256_xor_si256(d3, s3));
    }
    for (; i + 32 <= n; i += 32) {
        __m256i d = _mm256_loadu_si256((const __m256i *)(dst + i));
        __m256i s = _mm256_loadu_si256((const __m256i *)(src + i));
        _mm256_storeu_si256((__m256i *)(dst + i), _mm256_xor_si256(d, s));
    }
    for (; i < n; ++i)
        dst[i] ^= src[i];
}

namespace {

/** dst = c * src, or dst ^= c * src when @p Add, over @p n bytes. */
template <bool Add>
inline void
gfMulLoop256(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
             std::size_t n)
{
    const GfTables &t = gfTables();
    const __m256i tblLo = _mm256_broadcastsi128_si256(
        _mm_loadu_si128((const __m128i *)t.shuffleLo[c]));
    const __m256i tblHi = _mm256_broadcastsi128_si256(
        _mm_loadu_si128((const __m128i *)t.shuffleHi[c]));
    const __m256i nibMask = _mm256_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i x = _mm256_loadu_si256((const __m256i *)(src + i));
        const __m256i lo = _mm256_and_si256(x, nibMask);
        const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), nibMask);
        __m256i p = _mm256_xor_si256(_mm256_shuffle_epi8(tblLo, lo),
                                     _mm256_shuffle_epi8(tblHi, hi));
        if constexpr (Add)
            p = _mm256_xor_si256(
                p, _mm256_loadu_si256((const __m256i *)(dst + i)));
        _mm256_storeu_si256((__m256i *)(dst + i), p);
    }
    const std::uint8_t *row = t.mul[c];
    for (; i < n; ++i)
        dst[i] = Add ? dst[i] ^ row[src[i]] : row[src[i]];
}

/**
 * Call f(offset, image register) for each 32-byte block of the first
 * @p full bytes (a whole number of periods) of v's image, one half
 * period at a time: register k of half h holds words 32h + 4k ..
 * 32h + 4k + 3, word i rotated left by c = (29 i) mod 64 as
 * (v << c) | (v >> (64 - c)); a shift by 64 yields 0, so c = 0 works.
 */
template <typename F>
inline void
forEachImageBlock(std::uint64_t v, std::size_t full, F &&f)
{
    constexpr long long s = kExpandStride;
    const __m256i vv = _mm256_set1_epi64x(static_cast<long long>(v));
    __m256i cnt = _mm256_setr_epi64x(0, s, 2 * s, 3 * s);
    for (std::size_t half = 0; half < kExpandPeriodBytes; half += 256) {
        __m256i p[8];
#pragma GCC unroll 8
        for (int k = 0; k < 8; ++k) {
            const __m256i c = _mm256_and_si256(cnt, _mm256_set1_epi64x(63));
            p[k] = _mm256_or_si256(
                _mm256_sllv_epi64(vv, c),
                _mm256_srlv_epi64(
                    vv, _mm256_sub_epi64(_mm256_set1_epi64x(64), c)));
            cnt = _mm256_add_epi64(cnt, _mm256_set1_epi64x(4 * s));
        }
        for (std::size_t at = half; at < full; at += kExpandPeriodBytes) {
#pragma GCC unroll 8
            for (int k = 0; k < 8; ++k)
                f(at + 32 * k, p[k]);
        }
    }
}

} // namespace

void
gfMulAvx2(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
          std::size_t n)
{
    gfMulLoop256<false>(dst, src, c, n);
}

void
gfMulAddAvx2(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
             std::size_t n)
{
    gfMulLoop256<true>(dst, src, c, n);
}

// The image restarts at every period boundary, so the expansion kernels
// run whole periods here and leave the sub-period tail (a prefix image)
// to the scalar kernel.

void
expandAvx2(std::uint8_t *dst, std::uint64_t v, std::size_t n)
{
    const std::size_t full = n - n % kExpandPeriodBytes;
    forEachImageBlock(v, full, [dst](std::size_t at, __m256i w) {
        _mm256_storeu_si256((__m256i *)(dst + at), w);
    });
    expandScalar(dst + full, v, n - full);
}

bool
matchesExpansionAvx2(const std::uint8_t *src, std::uint64_t v,
                     std::size_t n)
{
    const std::size_t full = n - n % kExpandPeriodBytes;
    __m256i diff = _mm256_setzero_si256();
    forEachImageBlock(v, full, [src, &diff](std::size_t at, __m256i w) {
        const __m256i x = _mm256_loadu_si256((const __m256i *)(src + at));
        diff = _mm256_or_si256(diff, _mm256_xor_si256(x, w));
    });
    return _mm256_testz_si256(diff, diff) &&
           matchesExpansionScalar(src + full, v, n - full);
}

} // namespace declust::ec

#endif // x86
