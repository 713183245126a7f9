#include "disk/geometry.hpp"

#include "sim/time.hpp"
#include "util/error.hpp"

namespace declust {

DiskGeometry
DiskGeometry::ibm0661()
{
    return DiskGeometry{};
}

DiskGeometry
DiskGeometry::ibm0661Scaled(int tracksPerCyl)
{
    DiskGeometry g;
    DECLUST_ASSERT(tracksPerCyl >= 1 && tracksPerCyl <= g.tracksPerCyl,
                   "scaled tracks/cylinder must be in [1,",
                   g.tracksPerCyl, "]");
    g.tracksPerCyl = tracksPerCyl;
    return g;
}

std::int64_t
DiskGeometry::totalBytes() const
{
    return totalSectors() * sectorBytes;
}

std::int64_t
DiskGeometry::chsToLba(const Chs &chs) const
{
    return static_cast<std::int64_t>(chs.cylinder) * sectorsPerCylinder() +
           static_cast<std::int64_t>(chs.track) * sectorsPerTrack +
           chs.sector;
}

Tick
DiskGeometry::revolutionTicks() const
{
    return msToTicks(revolutionMs);
}

Tick
DiskGeometry::sectorTicks() const
{
    return msToTicks(revolutionMs / sectorsPerTrack);
}

void
DiskGeometry::validate() const
{
    if (cylinders < 2 || tracksPerCyl < 1 || sectorsPerTrack < 1 ||
        sectorBytes < 1)
        DECLUST_FATAL("degenerate disk geometry");
    if (revolutionMs <= 0 || seekMinMs <= 0 || seekAvgMs < seekMinMs ||
        seekMaxMs < seekAvgMs)
        DECLUST_FATAL("inconsistent disk timing parameters");
    if (trackSkewSectors < 0 || trackSkewSectors >= sectorsPerTrack)
        DECLUST_FATAL("track skew out of range");
}

} // namespace declust
