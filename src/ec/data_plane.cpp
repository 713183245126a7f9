#include "ec/data_plane.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

#include "ec/buffer_pool.hpp"
#include "ec/kernels.hpp"
#include "util/error.hpp"

namespace declust::ec {

namespace {

std::atomic<DataPlaneMode> g_defaultMode{DataPlaneMode::Off};

/** Rotation stride per 64-bit word of the expansion; coprime to 64 so
 * the 64 word rotations cycle through distinct alignments. */
constexpr unsigned kRotStride = 29;

/** Bytes after which the expansion repeats: 64 words of 8 bytes. */
constexpr std::size_t kPeriodBytes = 64 * 8;

} // namespace

const char *
dataPlaneModeName(DataPlaneMode mode)
{
    switch (mode) {
    case DataPlaneMode::Off:
        return "off";
    case DataPlaneMode::Verify:
        return "verify";
    }
    return "?";
}

bool
dataPlaneModeFromName(const std::string &name, DataPlaneMode *out)
{
    for (DataPlaneMode mode : {DataPlaneMode::Off, DataPlaneMode::Verify}) {
        if (name == dataPlaneModeName(mode)) {
            *out = mode;
            return true;
        }
    }
    return false;
}

DataPlaneMode
defaultDataPlaneMode()
{
    return g_defaultMode.load(std::memory_order_relaxed);
}

void
selectDataPlane(DataPlaneMode mode)
{
    g_defaultMode.store(mode, std::memory_order_relaxed);
}

DataPlane::DataPlane(DataPlaneMode mode, std::size_t unitBytes)
    : mode_(mode), unitBytes_(unitBytes), kernels_(kernels()),
      pool_(unitBytes)
{
    DECLUST_ASSERT(unitBytes_ > 0 && unitBytes_ % 8 == 0,
                   "data-plane unit size ", unitBytes_,
                   " is not a positive multiple of 8 bytes");
}

void
DataPlane::expandInto(std::uint8_t *dst, std::uint64_t v) const
{
    // Word i is rotl(v, (29 i) mod 64), which repeats every 64 words:
    // build one period, then replicate it by doubling copies.
    const std::size_t period = std::min(unitBytes_, kPeriodBytes);
    for (std::size_t i = 0; i < period / 8; ++i) {
        const std::uint64_t w =
            std::rotl(v, static_cast<int>((i * kRotStride) & 63));
        std::memcpy(dst + i * 8, &w, 8);
    }
    for (std::size_t done = period; done < unitBytes_;) {
        const std::size_t n = std::min(done, unitBytes_ - done);
        std::memcpy(dst + done, dst, n);
        done += n;
    }
}

void
DataPlane::checkCombine(const char *site, const std::uint64_t *vals,
                        int count, std::uint64_t expected)
{
    BufferLease acc(pool_);
    BufferLease scratch(pool_);

    expandInto(acc.get(), count > 0 ? vals[0] : 0);
    for (int i = 1; i < count; ++i) {
        expandInto(scratch.get(), vals[i]);
        kernels_.xorInto(acc.get(), scratch.get(), unitBytes_);
    }

    expandInto(scratch.get(), expected);
    if (std::memcmp(acc.get(), scratch.get(), unitBytes_) != 0) {
        // Locate the first diverging byte for the diagnostic.
        std::size_t at = 0;
        while (acc.get()[at] == scratch.get()[at])
            ++at;
        DECLUST_PANIC("data-plane mismatch at combine site '", site,
                      "': real ", count, "-way SIMD XOR (tier ",
                      tierName(kernels_.tier),
                      ") disagrees with the shadow value ", expected,
                      " first at byte ", at);
    }

    ++stats_.combinesChecked;
    if (count > 1) {
        stats_.unitsXored += static_cast<std::uint64_t>(count - 1);
        stats_.bytesXored +=
            static_cast<std::uint64_t>(count - 1) * unitBytes_;
    }
}

} // namespace declust::ec
