/**
 * @file
 * Portable scalar kernels — the reference implementation every SIMD
 * tier is property-tested against, and the fallback on non-x86 builds.
 *
 * XOR runs word-at-a-time via memcpy (alignment-safe, and the compiler
 * lowers the copies to plain loads/stores); GF(256) runs byte-at-a-time
 * through the 256x256 product table. The expansion kernels build one
 * period of the image word by word and replicate or compare it.
 */
#include "ec/gf256.hpp"
#include "ec/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace declust::ec {

void
xorIntoScalar(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
        std::uint64_t a;
        std::uint64_t b;
        std::memcpy(&a, dst + i, sizeof a);
        std::memcpy(&b, src + i, sizeof b);
        a ^= b;
        std::memcpy(dst + i, &a, sizeof a);
    }
    for (; i < n; ++i)
        dst[i] ^= src[i];
}

void
gfMulScalar(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
            std::size_t n)
{
    const std::uint8_t *row = gfTables().mul[c];
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = row[src[i]];
}

void
gfMulAddScalar(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
               std::size_t n)
{
    const std::uint8_t *row = gfTables().mul[c];
    for (std::size_t i = 0; i < n; ++i)
        dst[i] ^= row[src[i]];
}

void
expandScalar(std::uint8_t *dst, std::uint64_t v, std::size_t n)
{
    // Word i is rotl(v, (29 i) mod 64), which repeats every 64 words:
    // build one period, then replicate it by doubling copies.
    const std::size_t period = std::min(n, kExpandPeriodBytes);
    for (std::size_t i = 0; i < period / 8; ++i) {
        const std::uint64_t w =
            std::rotl(v, static_cast<int>((i * kExpandStride) & 63));
        std::memcpy(dst + i * 8, &w, 8);
    }
    for (std::size_t done = period; done < n;) {
        const std::size_t len = std::min(done, n - done);
        std::memcpy(dst + done, dst, len);
        done += len;
    }
}

bool
matchesExpansionScalar(const std::uint8_t *src, std::uint64_t v,
                       std::size_t n)
{
    std::uint8_t period[kExpandPeriodBytes];
    const std::size_t len = std::min(n, kExpandPeriodBytes);
    expandScalar(period, v, len);
    for (std::size_t at = 0; at < n; at += len) {
        if (std::memcmp(src + at, period, std::min(len, n - at)) != 0)
            return false;
    }
    return true;
}

} // namespace declust::ec
