/**
 * @file
 * Disk geometry description and address translation.
 *
 * Default parameters are the IBM 0661 Model 370 "Lightning" from the
 * paper's table 5-1(b): 949 cylinders, 14 tracks/cylinder, 48 sectors of
 * 512 bytes per track, 13.9 ms revolution, 2/12.5/25 ms min/avg/max seek,
 * and a 4-sector track skew.
 *
 * Track skew: logical sector 0 of absolute track T is physically rotated
 * by (skew * T) mod sectorsPerTrack slots, so a sequential transfer that
 * crosses a track boundary resumes after a head switch without losing a
 * full revolution.
 */
#pragma once

#include <cstdint>

#include "sim/time.hpp"
#include "util/error.hpp"
#include "util/fastdiv.hpp"

namespace declust {

/** Cylinder/track/sector coordinates. */
struct Chs
{
    int cylinder = 0;
    int track = 0;   // within the cylinder
    int sector = 0;  // within the track

    bool operator==(const Chs &) const = default;
};

/** Static description of one disk's geometry and timing. */
struct DiskGeometry
{
    int cylinders = 949;
    int tracksPerCyl = 14;
    int sectorsPerTrack = 48;
    int sectorBytes = 512;
    double revolutionMs = 13.9;
    int trackSkewSectors = 4;
    double seekMinMs = 2.0;
    double seekAvgMs = 12.5;
    double seekMaxMs = 25.0;

    /** The paper's disk, full scale. */
    static DiskGeometry ibm0661();

    /**
     * The paper's disk with capacity scaled down by using fewer tracks
     * per cylinder. Seek distances, rotation, and per-track layout are
     * unchanged, so service-time distributions match the full disk; only
     * capacity (and hence reconstruction sweep length) shrinks.
     */
    static DiskGeometry ibm0661Scaled(int tracksPerCyl);

    // The address translation below runs on every disk submit and
    // service computation, so it is defined inline.
    std::int64_t
    sectorsPerCylinder() const
    {
        return static_cast<std::int64_t>(tracksPerCyl) * sectorsPerTrack;
    }

    std::int64_t
    totalSectors() const
    {
        return static_cast<std::int64_t>(cylinders) * sectorsPerCylinder();
    }

    std::int64_t totalBytes() const;

    /** Absolute track index (cylinder * tracksPerCyl + track). */
    std::int64_t
    absoluteTrack(const Chs &chs) const
    {
        return static_cast<std::int64_t>(chs.cylinder) * tracksPerCyl +
               chs.track;
    }

    /** Decode an LBA. Range is the caller's contract; the divisions go
     * through memoized reciprocals instead of hardware division. */
    Chs
    lbaToChs(std::int64_t lba) const
    {
        DECLUST_DEBUG_ASSERT(lba >= 0 && lba < totalSectors(), "lba ", lba,
                             " out of range");
        const auto spc = static_cast<std::uint32_t>(sectorsPerCylinder());
        if (cylDiv_.divisor() != spc)
            cylDiv_ = FastDiv(spc);
        const auto spt = static_cast<std::uint32_t>(sectorsPerTrack);
        if (trackDiv_.divisor() != spt)
            trackDiv_ = FastDiv(spt);
        Chs chs;
        chs.cylinder = static_cast<int>(cylDiv_.quot64(lba));
        const auto inCyl = static_cast<std::uint32_t>(cylDiv_.rem64(lba));
        chs.track = static_cast<int>(trackDiv_.quot(inCyl));
        chs.sector = static_cast<int>(trackDiv_.rem(inCyl));
        return chs;
    }

    std::int64_t chsToLba(const Chs &chs) const;

    /** Duration of one revolution in ticks. */
    Tick revolutionTicks() const;

    /** Duration of one sector passing under the head, in ticks. */
    Tick sectorTicks() const;

    /**
     * Physical rotational slot of a logical sector, applying track skew:
     * (sector + skew * absoluteTrack) mod sectorsPerTrack.
     */
    int
    physicalSlot(const Chs &chs) const
    {
        const auto spt = static_cast<std::uint32_t>(sectorsPerTrack);
        if (trackDiv_.divisor() != spt)
            trackDiv_ = FastDiv(spt);
        const std::int64_t skewed =
            chs.sector +
            static_cast<std::int64_t>(trackSkewSectors) * absoluteTrack(chs);
        return static_cast<int>(trackDiv_.rem64(skewed));
    }

    /** Validate parameter sanity; throws ConfigError on nonsense. */
    void validate() const;

  private:
    /**
     * Memoized reciprocals for the per-access address translation,
     * re-installed whenever the public fields they were derived from
     * change (callers mutate the fields freely after construction).
     * Geometries are used from one thread at a time, like the disks
     * and simulations that hold them.
     */
    mutable FastDiv cylDiv_{};   // by sectorsPerCylinder()
    mutable FastDiv trackDiv_{}; // by sectorsPerTrack
};

} // namespace declust
