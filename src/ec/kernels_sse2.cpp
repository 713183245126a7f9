/**
 * @file
 * 128-bit kernels: SSE2 XOR, SSSE3 PSHUFB split-table GF(256).
 *
 * Compiled with -mssse3 (see src/ec/CMakeLists.txt); dispatch.cpp only
 * selects this tier when the CPU reports both sse2 and ssse3. The GF
 * kernels implement the jerasure/ISA-L split-table technique: PSHUFB
 * looks up the product of the coefficient with each byte's low and high
 * nibble in two 16-entry tables and XORs the halves.
 */
#if defined(__x86_64__) || defined(__i386__)

#include "ec/gf256.hpp"
#include "ec/kernels.hpp"

#include <emmintrin.h>
#include <tmmintrin.h>

namespace declust::ec {

void
xorIntoSse2(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        __m128i d0 = _mm_loadu_si128((const __m128i *)(dst + i));
        __m128i d1 = _mm_loadu_si128((const __m128i *)(dst + i + 16));
        __m128i d2 = _mm_loadu_si128((const __m128i *)(dst + i + 32));
        __m128i d3 = _mm_loadu_si128((const __m128i *)(dst + i + 48));
        __m128i s0 = _mm_loadu_si128((const __m128i *)(src + i));
        __m128i s1 = _mm_loadu_si128((const __m128i *)(src + i + 16));
        __m128i s2 = _mm_loadu_si128((const __m128i *)(src + i + 32));
        __m128i s3 = _mm_loadu_si128((const __m128i *)(src + i + 48));
        _mm_storeu_si128((__m128i *)(dst + i), _mm_xor_si128(d0, s0));
        _mm_storeu_si128((__m128i *)(dst + i + 16), _mm_xor_si128(d1, s1));
        _mm_storeu_si128((__m128i *)(dst + i + 32), _mm_xor_si128(d2, s2));
        _mm_storeu_si128((__m128i *)(dst + i + 48), _mm_xor_si128(d3, s3));
    }
    for (; i + 16 <= n; i += 16) {
        __m128i d = _mm_loadu_si128((const __m128i *)(dst + i));
        __m128i s = _mm_loadu_si128((const __m128i *)(src + i));
        _mm_storeu_si128((__m128i *)(dst + i), _mm_xor_si128(d, s));
    }
    for (; i < n; ++i)
        dst[i] ^= src[i];
}

namespace {

/** dst = c * src, or dst ^= c * src when @p Add, over @p n bytes. */
template <bool Add>
inline void
gfMulLoop128(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
             std::size_t n)
{
    const GfTables &t = gfTables();
    const __m128i tblLo = _mm_loadu_si128((const __m128i *)t.shuffleLo[c]);
    const __m128i tblHi = _mm_loadu_si128((const __m128i *)t.shuffleHi[c]);
    const __m128i nibMask = _mm_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i x = _mm_loadu_si128((const __m128i *)(src + i));
        const __m128i lo = _mm_and_si128(x, nibMask);
        const __m128i hi = _mm_and_si128(_mm_srli_epi16(x, 4), nibMask);
        __m128i p = _mm_xor_si128(_mm_shuffle_epi8(tblLo, lo),
                                  _mm_shuffle_epi8(tblHi, hi));
        if constexpr (Add)
            p = _mm_xor_si128(p, _mm_loadu_si128((const __m128i *)(dst + i)));
        _mm_storeu_si128((__m128i *)(dst + i), p);
    }
    const std::uint8_t *row = t.mul[c];
    for (; i < n; ++i)
        dst[i] = Add ? dst[i] ^ row[src[i]] : row[src[i]];
}

} // namespace

void
gfMulSse2(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
          std::size_t n)
{
    gfMulLoop128<false>(dst, src, c, n);
}

void
gfMulAddSse2(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
             std::size_t n)
{
    gfMulLoop128<true>(dst, src, c, n);
}

} // namespace declust::ec

#endif // x86
