/**
 * @file
 * Microbenchmark for layout criterion 4 ("efficient mapping"): the
 * logical-to-physical and inverse mapping functions must be cheap enough
 * for a device driver's data path. Uses google-benchmark.
 */
#include <benchmark/benchmark.h>

#include "designs/catalog.hpp"
#include "layout/declustered.hpp"
#include "layout/left_symmetric.hpp"

namespace {

using namespace declust;

constexpr int kUnitsPerDisk = 11388; // 2-track-scaled IBM 0661

/**
 * Units per disk of the G = 18 layout: the 1-track-scaled disk, smaller
 * than one full table of C(21,18), so only the addressable prefix of
 * the table is built.
 */
constexpr int kPrefixUnitsPerDisk = 5694;

const DeclusteredLayout &
declusteredLayout(int G)
{
    static const DeclusteredLayout g4(appendixDesign(4), kUnitsPerDisk);
    static const DeclusteredLayout g10(appendixDesign(10), kUnitsPerDisk);
    static const DeclusteredLayout g18(appendixDesign(18),
                                       kPrefixUnitsPerDisk);
    return G == 4 ? g4 : G == 10 ? g10 : g18;
}

void
BM_DeclusteredPlace(benchmark::State &state)
{
    const Layout &lay = declusteredLayout(static_cast<int>(state.range(0)));
    std::int64_t unit = 0;
    const std::int64_t n = lay.numDataUnits();
    for (auto _ : state) {
        const StripeUnit su = lay.dataUnitToStripe(unit);
        benchmark::DoNotOptimize(lay.place(su.stripe, su.pos));
        benchmark::DoNotOptimize(lay.placeParity(su.stripe));
        unit = (unit + 7919) % n;
    }
}
BENCHMARK(BM_DeclusteredPlace)->Arg(4)->Arg(10)->Arg(18);

void
BM_DeclusteredInvert(benchmark::State &state)
{
    const Layout &lay = declusteredLayout(static_cast<int>(state.range(0)));
    int disk = 0, offset = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lay.invert(disk, offset));
        disk = (disk + 1) % lay.numDisks();
        offset = (offset + 373) % lay.unitsPerDisk();
    }
}
BENCHMARK(BM_DeclusteredInvert)->Arg(4)->Arg(10)->Arg(18);

void
BM_DeclusteredDataUnitToStripe(benchmark::State &state)
{
    const Layout &lay = declusteredLayout(static_cast<int>(state.range(0)));
    std::int64_t unit = 0;
    const std::int64_t n = lay.numDataUnits();
    for (auto _ : state) {
        benchmark::DoNotOptimize(lay.dataUnitToStripe(unit));
        unit = (unit + 7919) % n;
    }
}
BENCHMARK(BM_DeclusteredDataUnitToStripe)->Arg(4)->Arg(10);

void
BM_LeftSymmetricPlace(benchmark::State &state)
{
    const LeftSymmetricLayout lay(21, kUnitsPerDisk);
    std::int64_t unit = 0;
    const std::int64_t n = lay.numDataUnits();
    for (auto _ : state) {
        const StripeUnit su = lay.dataUnitToStripe(unit);
        benchmark::DoNotOptimize(lay.place(su.stripe, su.pos));
        benchmark::DoNotOptimize(lay.placeParity(su.stripe));
        unit = (unit + 7919) % n;
    }
}
BENCHMARK(BM_LeftSymmetricPlace);

void
BM_LeftSymmetricInvert(benchmark::State &state)
{
    const LeftSymmetricLayout lay(21, kUnitsPerDisk);
    int disk = 0, offset = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lay.invert(disk, offset));
        disk = (disk + 1) % lay.numDisks();
        offset = (offset + 373) % lay.unitsPerDisk();
    }
}
BENCHMARK(BM_LeftSymmetricInvert);

/** G = 4 builds whole tables; G = 18 only the prefix its disk holds. */
void
BM_LayoutConstruction(benchmark::State &state)
{
    const int G = static_cast<int>(state.range(0));
    const int units = G == 18 ? kPrefixUnitsPerDisk : kUnitsPerDisk;
    const BlockDesign design = appendixDesign(G);
    for (auto _ : state) {
        DeclusteredLayout lay(design, units);
        benchmark::DoNotOptimize(lay.numStripes());
    }
    state.counters["table_bytes"] = static_cast<double>(
        DeclusteredLayout(design, units).mappingTableBytes());
}
BENCHMARK(BM_LayoutConstruction)->Arg(4)->Arg(18);

} // namespace

BENCHMARK_MAIN();
