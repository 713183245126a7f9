/**
 * @file
 * Pins for whole cluster runs: seeded ClusterRunner configs whose
 * merged result is reduced to a one-line fingerprint — every
 * ClusterCounters field, the window's event count and sustained IOPS,
 * the phase mean/p99/p999, each array's executed events and its final
 * census. Each case runs at 1, 3 and 4 workers and must print the same
 * fingerprint every time, so any change to how the runner batches
 * epochs into rounds, draws arrivals or steers them shows up here as a
 * moved number, not only as a worker-count mismatch.
 *
 * The cases cover the barrier work a batched round must not cross: a
 * warmup that ends off any 64-epoch boundary, rebuilds planned in the
 * middle of an otherwise quiet stretch, runs well over 200 epochs, and
 * avoidance switched off (steering then ignores the census).
 */
#include <cinttypes>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "cluster/census.hpp"
#include "cluster/runner.hpp"
#include "cluster/topology.hpp"

namespace declust {
namespace {

/** 4 arrays of 5 disks on a shrunken geometry (as test_cluster). */
ClusterConfig
smallCluster(double epochSec, std::uint64_t seed)
{
    ClusterConfig cfg;
    cfg.arrays = 4;
    cfg.array.numDisks = 5;
    cfg.array.stripeUnits = 4;
    DiskGeometry g = DiskGeometry::ibm0661();
    g.cylinders = 20;
    g.tracksPerCyl = 2;
    cfg.array.geometry = g;
    cfg.objects = 2000;
    cfg.zipfAlpha = 0.9;
    cfg.requestsPerSec = 120.0;
    cfg.epochSec = epochSec;
    cfg.seed = seed;
    return cfg;
}

/** One line holding everything the run measured. */
std::string
fingerprint(ClusterRunner &runner, const ClusterResult &res)
{
    const ClusterCounters &k = res.counters;
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "epochs=%d/%d routed=%" PRIu64 " redirects=%" PRIu64 "/%" PRIu64
        " completed=%" PRIu64 "/%" PRIu64 " degradedEpochs=%" PRIu64
        " rebuildingEpochs=%" PRIu64 " maxQueueDepth=%" PRId64
        " rebuiltUnits=%" PRIu64 " rebuildsCompleted=%" PRIu64
        " events=%" PRIu64 " iops=%.17g meanMs=%.17g p99Ms=%.17g"
        " p999Ms=%.17g",
        res.measuredEpochs, res.totalEpochs, k.routed, k.redirectsIn,
        k.redirectsOut, k.completedReads, k.completedWrites,
        k.degradedEpochs, k.rebuildingEpochs, k.maxQueueDepth,
        k.rebuiltUnits, k.rebuildsCompleted, res.events, res.sustainedIops,
        res.phase.meanMs(), res.phase.p99Ms(), res.phase.p999Ms());
    std::string out = buf;
    for (int i = 0; i < res.arrays; ++i) {
        const ArrayCensus &c = res.finalCensus[static_cast<std::size_t>(i)];
        std::snprintf(buf, sizeof buf,
                      " | a%d executed=%" PRIu64 " census=%d%d%d/%" PRId64
                      "/%" PRId64 "/%" PRId64,
                      i, runner.topology().array(i).eventQueue().executed(),
                      c.degraded, c.rebuilding, c.slow, c.queueDepth,
                      c.rebuiltUnits, c.unitsToRebuild);
        out += buf;
    }
    return out;
}

/** A seeded cluster scenario. */
struct PinCase
{
    ClusterConfig config;
    double warmupSec;
    double measureSec;
    /** (array, atSec) rebuilds of disk 0. */
    std::vector<std::pair<int, double>> rebuilds;
};

/** Run @p pin at 1, 3 and 4 workers; every run must print @p expected. */
void
expectFingerprint(const PinCase &pin, const std::string &expected)
{
    for (const int workers : {1, 3, 4}) {
        ClusterRunner runner(pin.config, workers);
        for (const auto &[array, atSec] : pin.rebuilds)
            runner.scheduleRebuild(array, atSec);
        const ClusterResult res = runner.run(pin.warmupSec, pin.measureSec);
        EXPECT_EQ(fingerprint(runner, res), expected)
            << workers << " workers";
    }
}

TEST(ClusterPin, FaultFreeLongRun)
{
    // 7 warmup epochs then 250 measured ones: the warmup boundary sits
    // off any multiple of 64.
    PinCase pin{smallCluster(0.1, 31), 0.7, 25.0, {}};
    expectFingerprint(pin,
        "epochs=250/257 routed=3048 redirects=0/0 completed=2133/917 "
        "degradedEpochs=0 rebuildingEpochs=0 maxQueueDepth=7 "
        "rebuiltUnits=0 rebuildsCompleted=0 events=14200 iops=122 "
        "meanMs=41.471944262295082 p99Ms=154.83333333333334 "
        "p999Ms=217.94999999999982 | a0 executed=4549 census=000/0/0/0 | "
        "a1 executed=3280 census=000/0/0/0 | a2 executed=3568 "
        "census=000/0/0/0 | a3 executed=3214 census=000/1/0/0");
}

TEST(ClusterPin, RollingRebuildsMidStretch)
{
    // 27 warmup epochs, 280 measured ones. The first rebuild lands
    // 33 epochs after the warmup boundary, the second while the first
    // still runs; reads steer off both.
    PinCase pin{smallCluster(0.05, 11), 1.35, 14.0, {{1, 3.0}, {2, 6.1}}};
    expectFingerprint(pin,
        "epochs=280/307 routed=1683 redirects=402/402 completed=1199/483 "
        "degradedEpochs=396 rebuildingEpochs=396 maxQueueDepth=10 "
        "rebuiltUnits=434 rebuildsCompleted=1 events=9198 "
        "iops=120.14285714285714 meanMs=47.699904280618306 "
        "p99Ms=225.59000000000003 p999Ms=370.31799999999998 | a0 "
        "executed=1933 census=000/0/0/0 | a1 executed=2674 "
        "census=000/3/240/240 | a2 executed=3195 census=110/0/194/240 | "
        "a3 executed=2057 census=000/1/0/0");
}

TEST(ClusterPin, AvoidanceOffWhileRebuilding)
{
    // Steering ignores the census, so rebuilding arrays keep their
    // reads; 13 warmup epochs, 280 measured, two staggered rebuilds.
    PinCase pin{smallCluster(0.05, 23), 0.65, 14.0, {{0, 2.2}, {3, 4.9}}};
    pin.config.avoidImpaired = false;
    expectFingerprint(pin,
        "epochs=280/293 routed=1689 redirects=0/0 completed=1188/504 "
        "degradedEpochs=442 rebuildingEpochs=442 maxQueueDepth=10 "
        "rebuiltUnits=397 rebuildsCompleted=1 events=9626 "
        "iops=120.85714285714286 meanMs=59.085183215130044 "
        "p99Ms=318.07999999999993 p999Ms=542.30799999999999 | a0 "
        "executed=3235 census=000/4/240/240 | a1 executed=1828 "
        "census=000/0/0/0 | a2 executed=1848 census=000/2/0/0 | a3 "
        "executed=3096 census=110/1/157/240");
}

} // namespace
} // namespace declust
