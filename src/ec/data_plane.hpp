/**
 * @file
 * Optional real-bytes data plane for the array controller.
 *
 * The simulator's at-rest state stays 64-bit unit values (contents.hpp)
 * — materializing every unit's bytes would cost hundreds of MB at
 * figure-8 scale. Instead the byte image of a unit is *generative*: a
 * GF(2)-linear expansion of its value,
 *
 *     word[i] = rotl64(value, (i * 29) & 63)        (word 0 == value)
 *
 * Linearity gives expand(a) ^ expand(b) == expand(a ^ b), and word 0
 * makes the map injective — so XORing the real byte images of a parity
 * combine's inputs must land exactly on the byte image of the 64-bit
 * expected value, and one matchesExpansion kernel pass (which never
 * writes that image) proves 4096 bytes of real SIMD parity math agree
 * with the ShadowModel. The rotation stride (29, coprime to 64) spreads
 * each value bit across different bit positions in every word, so a
 * kernel bug that garbles lanes, misses a tail, or swaps operand halves
 * cannot cancel out.
 *
 * Modes (DataPlaneMode): Off — no buffers touched, byte-identical to
 * the pre-data-plane goldens; Verify — every combine site XORs real
 * unit buffers through the dispatched SIMD kernels and cross-checks
 * against the shadow value (zero effect on simulated time, so goldens
 * still match).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "ec/kernels.hpp"
#include "util/annotations.hpp"

namespace declust::ec {

/** How much real work the controller's parity path performs. */
enum class DataPlaneMode : int
{
    Off = 0,    ///< value-level shadow math only (default)
    Verify = 1, ///< real SIMD byte math cross-checked, no timing change
};

/** CLI/display name: off | verify. */
const char *dataPlaneModeName(DataPlaneMode mode);

/** Parse a mode name; false on an unknown spelling. */
bool dataPlaneModeFromName(const std::string &name, DataPlaneMode *out);

/** Process-wide default mode used by newly built simulations
 * (selectDataPlane; initially Off): benches set it once from
 * --data-plane and every SimConfig picks it up without per-bench
 * plumbing. */
DataPlaneMode defaultDataPlaneMode();

/** Set the process-wide default mode. */
void selectDataPlane(DataPlaneMode mode);

/**
 * Per-controller engine: two unit buffers + dispatched kernels +
 * counters. Every check is synchronous (expand, XOR, compare within one
 * call) and needs exactly an accumulator and a scratch unit, so both
 * are allocated once at construction and checks never allocate.
 */
class DataPlane
{
  public:
    struct Stats
    {
        std::uint64_t combinesChecked = 0; ///< cross-checked combines
        std::uint64_t unitsXored = 0;      ///< source units streamed
        std::uint64_t bytesXored = 0;      ///< bytes through xorInto
    };

    /** @param unitBytes Stripe-unit size in bytes (multiple of 8). */
    DataPlane(DataPlaneMode mode, std::size_t unitBytes);

    DataPlaneMode mode() const { return mode_; }
    std::size_t unitBytes() const { return unitBytes_; }
    const Stats &stats() const { return stats_; }
    Tier tier() const { return kernels_.tier; }

    /**
     * Verify one parity combine with real bytes: expand the @p count
     * source values at @p vals, XOR them through the SIMD kernels, and
     * panic (InternalError) unless the result is byte-for-byte the
     * expansion of @p expected. @p site names the combine in the
     * diagnostic (e.g. "degraded-read"). count == 0 checks
     * expected == 0 (an empty XOR), matching xorStripeExcept's
     * identity.
     */
    DECLUST_HOT_PATH
    void checkCombine(const char *site, const std::uint64_t *vals,
                      int count, std::uint64_t expected);

    /** Write the byte expansion of @p v into @p dst (unitBytes long). */
    DECLUST_HOT_PATH
    void expandInto(std::uint8_t *dst, std::uint64_t v) const;

  private:
    DataPlaneMode mode_;
    std::size_t unitBytes_;
    const Kernels &kernels_;
    std::unique_ptr<std::uint8_t[]> storage_; ///< backs both units
    std::uint8_t *acc_ = nullptr;     ///< 64-byte-aligned accumulator
    std::uint8_t *scratch_ = nullptr; ///< 64-byte-aligned source unit
    Stats stats_;
};

} // namespace declust::ec
