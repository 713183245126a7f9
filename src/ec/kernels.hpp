/**
 * @file
 * SIMD XOR / GF(256) kernel dispatch for the erasure-code data plane.
 *
 * Each tier is one translation unit compiled with that tier's ISA flags
 * (kernels_scalar.cpp, kernels_sse2.cpp, kernels_avx2.cpp,
 * kernels_avx512.cpp); dispatch.cpp picks the best tier the running CPU
 * supports — or the tier named by DECLUST_EC_FORCE_TIER, clamped down
 * to the best supported one — and exposes it as a vtable-free function
 * table. All kernels use unaligned loads/stores, so they accept any
 * buffer alignment and any length (a multiple of 8 for the expansion
 * kernels); the data plane still hands them 64-byte-aligned units so
 * the aligned fast path is what actually runs.
 *
 * Tier naming: "sse2" names the 128-bit XOR ISA; its GF(256) kernels
 * use the SSSE3 PSHUFB split-table technique (ISA-L/jerasure style), so
 * the tier requires SSE2+SSSE3 — universal on x86-64 hardware since
 * 2006. "avx512" requires AVX-512F (loads/XOR) plus AVX-512BW (the
 * 512-bit byte shuffle). Non-x86 builds compile the scalar tier only.
 *
 * The raw intrinsics live exclusively in the per-tier TUs under src/ec/
 * (analyzer rule ec-isolation keeps it that way, walking the include
 * graph so a leak through a transitive header is caught too).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace declust::ec {

/** Instruction-set tiers, in ascending capability order. */
enum class Tier : int
{
    Scalar = 0,
    Sse2 = 1,
    Avx2 = 2,
    Avx512 = 3,
};

inline constexpr int kTierCount = 4;

/** Display/CLI name of @p tier: scalar | sse2 | avx2 | avx512. */
const char *tierName(Tier tier);

/** Parse a tier name; false on an unknown spelling. */
bool tierFromName(const std::string &name, Tier *out);

/** Per-word rotation stride of a unit's generative image (see
 * data_plane.hpp); coprime to 64, so the image repeats every 64 words. */
inline constexpr unsigned kExpandStride = 29;
inline constexpr std::size_t kExpandPeriodBytes = 64 * 8;

/**
 * One tier's kernel set. Plain function pointers (no virtual dispatch):
 * the table is resolved once and the per-call cost is one indirect
 * call, matching the slab-pool/raw-{fn,ctx} idiom of the I/O spine.
 */
struct Kernels
{
    /** dst ^= src over @p n bytes (the parity combine primitive). */
    void (*xorInto)(std::uint8_t *dst, const std::uint8_t *src,
                    std::size_t n);
    /** dst = c * src over @p n bytes in GF(256). */
    void (*gfMul)(std::uint8_t *dst, const std::uint8_t *src,
                  std::uint8_t c, std::size_t n);
    /** dst ^= c * src over @p n bytes in GF(256) (the FMA primitive a
     * Reed-Solomon / RAID 6 encode loop is built from). */
    void (*gfMulAdd)(std::uint8_t *dst, const std::uint8_t *src,
                     std::uint8_t c, std::size_t n);
    /** dst = the generative image of @p v over @p n bytes (a multiple
     * of 8): word i = rotl64(v, (kExpandStride * i) mod 64). */
    void (*expand)(std::uint8_t *dst, std::uint64_t v, std::size_t n);
    /** True iff the @p n bytes at @p src equal expand(v, n); the image
     * itself is never written. */
    bool (*matchesExpansion)(const std::uint8_t *src, std::uint64_t v,
                             std::size_t n);
    Tier tier;
};

/** True if the running CPU (and this build) can execute @p tier. */
bool tierSupported(Tier tier);

/** The most capable tier the running CPU supports. */
Tier bestSupportedTier();

/** Kernel table for @p tier; @p tier must be supported. */
const Kernels &kernelsFor(Tier tier);

/**
 * The dispatched kernel table: bestSupportedTier(), unless the
 * DECLUST_EC_FORCE_TIER environment variable (scalar | sse2 | avx2 |
 * avx512) names a lower tier — an unsupported or higher-than-supported
 * request clamps down with a note to stderr. Resolved once per process.
 */
const Kernels &kernels();

/** Tier of the dispatched table (kernels().tier). */
Tier activeTier();

/**
 * Space-separated feature string of the running CPU as the dispatch
 * layer sees it (e.g. "sse2 ssse3 avx2 avx512f avx512bw"), recorded in
 * bench JSON so calibration numbers carry their hardware context.
 */
std::string cpuFeatureString();

/** @{ Per-tier entry points (defined in the per-tier TUs; the scalar
 * set doubles as the reference the property tests compare against).
 * Only the tiers this build compiled are non-null in the tables. */
void xorIntoScalar(std::uint8_t *dst, const std::uint8_t *src,
                   std::size_t n);
void gfMulScalar(std::uint8_t *dst, const std::uint8_t *src,
                 std::uint8_t c, std::size_t n);
void gfMulAddScalar(std::uint8_t *dst, const std::uint8_t *src,
                    std::uint8_t c, std::size_t n);
void expandScalar(std::uint8_t *dst, std::uint64_t v, std::size_t n);
bool matchesExpansionScalar(const std::uint8_t *src, std::uint64_t v,
                            std::size_t n);
#if defined(__x86_64__) || defined(__i386__)
void xorIntoSse2(std::uint8_t *dst, const std::uint8_t *src,
                 std::size_t n);
void gfMulSse2(std::uint8_t *dst, const std::uint8_t *src,
               std::uint8_t c, std::size_t n);
void gfMulAddSse2(std::uint8_t *dst, const std::uint8_t *src,
                  std::uint8_t c, std::size_t n);
void xorIntoAvx2(std::uint8_t *dst, const std::uint8_t *src,
                 std::size_t n);
void gfMulAvx2(std::uint8_t *dst, const std::uint8_t *src,
               std::uint8_t c, std::size_t n);
void gfMulAddAvx2(std::uint8_t *dst, const std::uint8_t *src,
                  std::uint8_t c, std::size_t n);
void expandAvx2(std::uint8_t *dst, std::uint64_t v, std::size_t n);
bool matchesExpansionAvx2(const std::uint8_t *src, std::uint64_t v,
                          std::size_t n);
void xorIntoAvx512(std::uint8_t *dst, const std::uint8_t *src,
                   std::size_t n);
void gfMulAvx512(std::uint8_t *dst, const std::uint8_t *src,
                 std::uint8_t c, std::size_t n);
void gfMulAddAvx512(std::uint8_t *dst, const std::uint8_t *src,
                    std::uint8_t c, std::size_t n);
void expandAvx512(std::uint8_t *dst, std::uint64_t v, std::size_t n);
bool matchesExpansionAvx512(const std::uint8_t *src, std::uint64_t v,
                            std::size_t n);
#endif
/** @} */

} // namespace declust::ec
