#include "ec/data_plane.hpp"

#include <atomic>

#include "ec/kernels.hpp"
#include "util/error.hpp"

namespace declust::ec {

namespace {

std::atomic<DataPlaneMode> g_defaultMode{DataPlaneMode::Off};

/** Buffer alignment, so the SIMD kernels run their aligned fast path. */
constexpr std::size_t kAlignment = 64;

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
    : mode_(mode), unitBytes_(unitBytes), kernels_(kernels())
{
    DECLUST_ASSERT(unitBytes_ > 0 && unitBytes_ % 8 == 0,
                   "data-plane unit size ", unitBytes_,
                   " is not a positive multiple of 8 bytes");
    // One allocation, aligned by hand over the plain (unaligned) new so
    // the allocation-guard test, which does not interpose the aligned
    // overloads, sees it. Scratch starts a cache line past the
    // accumulator's end: units a multiple of 4 KiB apart would falsely
    // alias loads from one with stores to the other.
    const std::size_t stride =
        (unitBytes_ + kAlignment - 1) / kAlignment * kAlignment + kAlignment;
    storage_ = std::make_unique<std::uint8_t[]>(kAlignment + 2 * stride);
    const auto base = reinterpret_cast<std::uintptr_t>(storage_.get());
    acc_ = storage_.get() + (kAlignment - base % kAlignment) % kAlignment;
    scratch_ = acc_ + stride;
}

void
DataPlane::expandInto(std::uint8_t *dst, std::uint64_t v) const
{
    kernels_.expand(dst, v, unitBytes_);
}

void
DataPlane::checkCombine(const char *site, const std::uint64_t *vals,
                        int count, std::uint64_t expected)
{
    kernels_.expand(acc_, count > 0 ? vals[0] : 0, unitBytes_);
    for (int i = 1; i < count; ++i) {
        kernels_.expand(scratch_, vals[i], unitBytes_);
        kernels_.xorInto(acc_, scratch_, unitBytes_);
    }

    if (!kernels_.matchesExpansion(acc_, expected, unitBytes_)) {
        // Write the expected image only now, to locate the first
        // diverging byte for the diagnostic.
        kernels_.expand(scratch_, expected, unitBytes_);
        std::size_t at = 0;
        while (acc_[at] == scratch_[at])
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
