/**
 * @file
 * Cluster-layer tests: worker-count invariance of a full cluster run,
 * router placement/avoidance properties, rebuild scenario bookkeeping,
 * and ClusterCounters merge algebra.
 *
 * The load-bearing property is the first one: a ClusterRunner's merged
 * result must be EXACTLY equal — every count, every double — whether
 * one worker or eight advanced the arrays. That is the determinism
 * contract bench_cluster's golden byte-compare rides on.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/census.hpp"
#include "cluster/router.hpp"
#include "cluster/runner.hpp"
#include "cluster/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "util/error.hpp"

namespace declust {
namespace {

/** Small, fast cluster: 4 arrays of 5 disks on a shrunken geometry. */
ClusterConfig
smallCluster()
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
    cfg.epochSec = 0.25;
    cfg.seed = 11;
    return cfg;
}

ClusterResult
runCluster(int workers, int rebuilds, double measureSec = 4.0)
{
    ClusterRunner runner(smallCluster(), workers);
    if (rebuilds > 0)
        scheduleRollingRebuilds(runner, rebuilds, 1.0, 0.5);
    return runner.run(1.0, measureSec);
}

void
expectIdentical(const ClusterResult &a, const ClusterResult &b)
{
    // Exact equality, doubles included: the runs must have executed
    // the same event stream tick for tick.
    EXPECT_EQ(a.phase.reads, b.phase.reads);
    EXPECT_EQ(a.phase.writes, b.phase.writes);
    EXPECT_EQ(a.phase.meanMs(), b.phase.meanMs());
    EXPECT_EQ(a.phase.p99Ms(), b.phase.p99Ms());
    EXPECT_EQ(a.phase.p999Ms(), b.phase.p999Ms());
    EXPECT_EQ(a.sustainedIops, b.sustainedIops);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.counters.routed, b.counters.routed);
    EXPECT_EQ(a.counters.redirectsIn, b.counters.redirectsIn);
    EXPECT_EQ(a.counters.redirectsOut, b.counters.redirectsOut);
    EXPECT_EQ(a.counters.completedReads, b.counters.completedReads);
    EXPECT_EQ(a.counters.completedWrites, b.counters.completedWrites);
    EXPECT_EQ(a.counters.degradedEpochs, b.counters.degradedEpochs);
    EXPECT_EQ(a.counters.rebuildingEpochs, b.counters.rebuildingEpochs);
    EXPECT_EQ(a.counters.maxQueueDepth, b.counters.maxQueueDepth);
    EXPECT_EQ(a.counters.rebuiltUnits, b.counters.rebuiltUnits);
    EXPECT_EQ(a.counters.rebuildsCompleted,
              b.counters.rebuildsCompleted);
    ASSERT_EQ(a.finalCensus.size(), b.finalCensus.size());
    for (std::size_t i = 0; i < a.finalCensus.size(); ++i) {
        EXPECT_EQ(a.finalCensus[i].degraded, b.finalCensus[i].degraded);
        EXPECT_EQ(a.finalCensus[i].queueDepth,
                  b.finalCensus[i].queueDepth);
    }
}

TEST(Cluster, ResultInvariantUnderWorkerCount)
{
    // 1 and 8 workers: both runs of the rebuild scenario must be
    // exactly equal.
    const ClusterResult base = runCluster(1, 2);
    expectIdentical(base, runCluster(8, 2));
}

TEST(Cluster, FaultFreeServesTheOfferedLoad)
{
    const ClusterResult res = runCluster(2, 0);
    EXPECT_EQ(res.counters.rebuildsCompleted, 0u);
    EXPECT_EQ(res.counters.degradedEpochs, 0u);
    EXPECT_EQ(res.counters.redirectsIn, 0u);
    // Open-loop at 120 req/s: sustained throughput tracks the offered
    // rate (wide tolerance; this is a sanity bound, not a calibration).
    EXPECT_NEAR(res.sustainedIops, 120.0, 30.0);
    EXPECT_GT(res.phase.meanMs(), 0.0);
}

TEST(Cluster, RollingRebuildsCompleteAndAreCounted)
{
    const ClusterResult res = runCluster(4, 2, 12.0);
    // A rebuild takes ~9.6 virtual seconds on the shrunken geometry
    // while serving; the 13s horizon covers both staggered repairs.
    EXPECT_EQ(res.counters.rebuildsCompleted, 2u);
    EXPECT_GT(res.counters.rebuiltUnits, 0u);
    EXPECT_GT(res.counters.rebuildingEpochs, 0u);
    // Repairs overlapped serving: reads were steered off the repairing
    // primaries at least once.
    EXPECT_GT(res.counters.redirectsIn, 0u);
    // And the cluster kept serving the whole time.
    EXPECT_GT(res.phase.reads + res.phase.writes, 0u);
}

TEST(Cluster, MeasuredWindowRoundsUpToWholeEpochs)
{
    ClusterConfig cfg = smallCluster();
    cfg.epochSec = 0.4;
    ClusterRunner runner(cfg, 1);
    const ClusterResult res = runner.run(0.0, 1.0); // 2.5 epochs -> 3
    EXPECT_EQ(res.measuredEpochs, 3);
    EXPECT_DOUBLE_EQ(res.measuredSec, 1.2);
}

TEST(Cluster, EveryWorkerCountMatchesTheSerialRun)
{
    // Two and three workers over four arrays exercise owners with
    // unequal list lengths and helpers taking arrays off other owners'
    // lists; five workers leave one with nothing to own.
    const ClusterResult base = runCluster(1, 2);
    for (const int workers : {2, 3, 4, 5})
        expectIdentical(base, runCluster(workers, 2));
}

TEST(Cluster, WallProbeSplitsTheLoopByWorker)
{
    // A fake clock that ticks once per call: the breakdown must account
    // for every advance, whichever worker ran it.
    std::atomic<long> clock{0};
    ClusterRunner runner(smallCluster(), 3);
    runner.setWallProbe(
        [&clock] { return static_cast<double>(clock.fetch_add(1)); });
    const ClusterResult res = runner.run(0.5, 1.0);
    ASSERT_EQ(res.wall.advanceSec.size(), 3u);
    // Every advance spans at least one tick of its own.
    double busy = 0.0;
    for (const double w : res.wall.advanceSec) {
        EXPECT_LE(w, res.wall.roundSec);
        busy += w;
    }
    EXPECT_GE(busy, static_cast<double>(res.rounds * res.arrays));
    EXPECT_GT(res.wall.barrierSec, 0.0);

    // Without a probe the loop records nothing.
    ClusterRunner quiet(smallCluster(), 3);
    const ClusterResult none = quiet.run(0.5, 1.0);
    EXPECT_TRUE(none.wall.advanceSec.empty());
}

TEST(Cluster, FailingAdvanceSurfacesTheSameErrorAtAnyWorkerCount)
{
    // Arrays throw from inside their event cores at their first disk
    // access past a set virtual time. The run must surface the same
    // error at every worker count: the one a serial run of one epoch
    // per round meets first (lowest failing array of the first failing
    // epoch).
    struct Case
    {
        std::vector<std::pair<int, double>> throwAfter;
        /** Expected message; empty: whatever one worker surfaces. */
        std::string expected;
    };
    const std::vector<Case> cases = {
        // Both fail in the same epoch: the lower array wins.
        {{{1, 1.0}, {3, 1.0}}, ""},
        // Array 3 fails epochs before array 1, though both fail inside
        // one window and array 1 comes first in every worker's list.
        {{{3, 1.0}, {1, 1.5}}, "array 3"},
    };
    for (const Case &c : cases) {
        std::string serial = c.expected;
        for (const int workers : {1, 2, 3, 4}) {
            ClusterRunner runner(smallCluster(), workers);
            for (const auto &[i, atSec] : c.throwAfter) {
                runner.topology().array(i).controller().setAccessTracer(
                    [i, at = secToTicks(atSec)](const AccessRecord &r) {
                        if (r.completed >= at)
                            throw std::runtime_error("array " +
                                                     std::to_string(i));
                    });
            }
            std::string message;
            try {
                runner.run(0.5, 2.0);
            } catch (const std::runtime_error &e) {
                message = e.what();
            }
            EXPECT_FALSE(message.empty()) << workers << " workers";
            if (serial.empty())
                serial = message;
            EXPECT_EQ(message, serial) << workers << " workers";
        }
    }
}

TEST(Cluster, QuietRunsAdvanceManyEpochsPerRound)
{
    // 6 warmup epochs and 160 measured ones, nothing impaired: one
    // round for the warmup, then windows of up to 64 epochs.
    for (const int workers : {1, 4}) {
        ClusterRunner runner(smallCluster(), workers);
        const ClusterResult res = runner.run(1.3, 40.0);
        ASSERT_EQ(res.totalEpochs, 166);
        EXPECT_LE(res.rounds, (res.totalEpochs + 63) / 64 + 1);
    }
}

TEST(Cluster, EpochsWithAnImpairedArrayRunOnePerRound)
{
    // Array 0 fails at the warmup boundary and rebuilds through the
    // whole measured window: after the warmup's one round, every
    // epoch's steering depends on the census before it, so each
    // measured epoch is a round of its own.
    ClusterRunner runner(smallCluster(), 2);
    runner.scheduleRebuild(0, 1.0);
    const ClusterResult res = runner.run(1.0, 4.0);
    ASSERT_EQ(res.counters.degradedEpochs,
              static_cast<std::uint64_t>(res.measuredEpochs));
    EXPECT_EQ(res.rounds, 1 + res.measuredEpochs);

    // With avoidance off steering never reads the census, so the
    // repair runs in one window.
    ClusterConfig cfg = smallCluster();
    cfg.avoidImpaired = false;
    ClusterRunner blind(cfg, 2);
    blind.scheduleRebuild(0, 1.0);
    EXPECT_EQ(blind.run(1.0, 4.0).rounds, 2);
}

TEST(Cluster, HealthMonitorKeepsOneEpochPerRound)
{
    // A monitor can flag a disk slow at any epoch, so no window opens.
    ClusterConfig cfg = smallCluster();
    cfg.array.healthMonitor = true;
    ClusterRunner runner(cfg, 2);
    const ClusterResult res = runner.run(0.5, 2.0);
    EXPECT_EQ(res.rounds, res.totalEpochs);
}

TEST(Cluster, ArrayImpairedInsideAWindowIsAnInternalError)
{
    // Fail a disk behind the runner's back, mid-window: the epochs after
    // it were steered on a census that said the array was healthy, so
    // the advance must refuse to go on.
    ClusterRunner runner(smallCluster(), 1);
    ArrayController &ctl = runner.topology().array(2).controller();
    EventQueue &eq = runner.topology().array(2).eventQueue();
    bool failed = false;
    for (int ms = 3000; ms < 3200; ms += 5) {
        eq.scheduleAt(secToTicks(ms / 1000.0), [&ctl, &failed] {
            if (!failed && ctl.quiescent()) {
                ctl.failDisk(0);
                failed = true;
            }
        });
    }
    std::string message;
    try {
        runner.run(0.5, 10.0);
    } catch (const InternalError &e) {
        message = e.what();
    }
    EXPECT_TRUE(failed);
    EXPECT_NE(message.find("array 2 became impaired"), std::string::npos)
        << message;
}

TEST(Cluster, CountersMergeIsAssociative)
{
    ClusterCounters a;
    a.routed = 10;
    a.redirectsIn = 1;
    a.maxQueueDepth = 4;
    a.rebuiltUnits = 100;
    ClusterCounters b;
    b.routed = 20;
    b.redirectsOut = 3;
    b.maxQueueDepth = 9;
    b.degradedEpochs = 2;
    ClusterCounters c;
    c.routed = 5;
    c.completedReads = 7;
    c.maxQueueDepth = 6;
    c.rebuildsCompleted = 1;

    ClusterCounters ab = a;
    ab.merge(b);
    ClusterCounters ab_c = ab;
    ab_c.merge(c);

    ClusterCounters bc = b;
    bc.merge(c);
    ClusterCounters a_bc = a;
    a_bc.merge(bc);

    EXPECT_EQ(ab_c.routed, a_bc.routed);
    EXPECT_EQ(ab_c.redirectsIn, a_bc.redirectsIn);
    EXPECT_EQ(ab_c.redirectsOut, a_bc.redirectsOut);
    EXPECT_EQ(ab_c.completedReads, a_bc.completedReads);
    EXPECT_EQ(ab_c.completedWrites, a_bc.completedWrites);
    EXPECT_EQ(ab_c.degradedEpochs, a_bc.degradedEpochs);
    EXPECT_EQ(ab_c.rebuildingEpochs, a_bc.rebuildingEpochs);
    EXPECT_EQ(ab_c.maxQueueDepth, a_bc.maxQueueDepth);
    EXPECT_EQ(ab_c.rebuiltUnits, a_bc.rebuiltUnits);
    EXPECT_EQ(ab_c.rebuildsCompleted, a_bc.rebuildsCompleted);
    EXPECT_EQ(ab_c.maxQueueDepth, 9);
    EXPECT_EQ(ab_c.routed, 35u);
}

TEST(Cluster, PlacementIsConsistentAndInBounds)
{
    const ClusterConfig cfg = smallCluster();
    ClusterTopology topo(cfg);
    RequestRouter router(cfg, topo.dataUnitsPerArray());
    for (std::int64_t obj = 0; obj < cfg.objects; obj += 37) {
        const int primary = router.primaryArray(obj);
        const int replica = router.replicaArray(obj);
        ASSERT_GE(primary, 0);
        ASSERT_LT(primary, cfg.arrays);
        ASSERT_GE(replica, 0);
        ASSERT_LT(replica, cfg.arrays);
        ASSERT_NE(primary, replica); // arrays > 1: always distinct
        const int units = router.objectUnits(obj);
        bool known = false;
        for (const int u : cfg.sizeClassUnits)
            known = known || units == u;
        ASSERT_TRUE(known);
        const std::int64_t first = router.objectFirstUnit(obj);
        ASSERT_GE(first, 0);
        ASSERT_LE(first + units, topo.dataUnitsPerArray());
        // Stable across calls (consistent placement).
        ASSERT_EQ(primary, router.primaryArray(obj));
        ASSERT_EQ(first, router.objectFirstUnit(obj));
    }
}

TEST(Cluster, RouterSteersReadsOffImpairedPrimaries)
{
    ClusterConfig cfg = smallCluster();
    cfg.readFraction = 1.0; // all reads: every request is steerable
    ClusterTopology topo(cfg);
    RequestRouter router(cfg, topo.dataUnitsPerArray());

    std::vector<ArrayCensus> census(
        static_cast<std::size_t>(cfg.arrays));
    census[0].rebuilding = true; // array 0 impaired, rest healthy
    std::vector<std::vector<Arrival>> out(
        static_cast<std::size_t>(cfg.arrays));
    std::vector<ClusterCounters> counters(
        static_cast<std::size_t>(cfg.arrays));
    router.route(0, secToTicks(5.0), census, out, counters);

    EXPECT_EQ(out[0].size(), 0u) << "reads still routed to the "
                                    "impaired primary";
    EXPECT_GT(counters[0].redirectsOut, 0u);
    EXPECT_EQ(counters[0].routed, 0u);
    std::uint64_t redirectsIn = 0;
    for (const auto &c : counters)
        redirectsIn += c.redirectsIn;
    EXPECT_EQ(redirectsIn, counters[0].redirectsOut);
    // Arrival ticks are in-window and non-decreasing per array.
    for (const auto &buf : out) {
        for (std::size_t i = 0; i < buf.size(); ++i) {
            ASSERT_LT(buf[i].when, secToTicks(5.0));
            if (i > 0) {
                ASSERT_GE(buf[i].when, buf[i - 1].when);
            }
        }
    }
}

TEST(Cluster, AvoidanceOffRoutesEverythingToPrimaries)
{
    ClusterConfig cfg = smallCluster();
    cfg.avoidImpaired = false;
    ClusterTopology topo(cfg);
    RequestRouter router(cfg, topo.dataUnitsPerArray());
    std::vector<ArrayCensus> census(
        static_cast<std::size_t>(cfg.arrays));
    census[0].degraded = true;
    std::vector<std::vector<Arrival>> out(
        static_cast<std::size_t>(cfg.arrays));
    std::vector<ClusterCounters> counters(
        static_cast<std::size_t>(cfg.arrays));
    router.route(0, secToTicks(2.0), census, out, counters);
    for (const auto &c : counters) {
        EXPECT_EQ(c.redirectsIn, 0u);
        EXPECT_EQ(c.redirectsOut, 0u);
    }
}

TEST(Cluster, SubSeededArraysAreDecorrelated)
{
    const ClusterConfig cfg = smallCluster();
    ClusterTopology topo(cfg);
    ASSERT_EQ(topo.arrays(), cfg.arrays);
    // Per-array seeds derive via shardSeed, so the arrays' value seeds
    // (and thus their event streams) must all differ.
    for (int i = 0; i < topo.arrays(); ++i)
        for (int j = i + 1; j < topo.arrays(); ++j)
            EXPECT_NE(topo.array(i).config().seed,
                      topo.array(j).config().seed);
}

TEST(Cluster, RejectsBadConfig)
{
    ClusterConfig bad = smallCluster();
    bad.arrays = 0;
    EXPECT_THROW(ClusterTopology{bad}, ConfigError);
    bad = smallCluster();
    bad.requestsPerSec = 0.0;
    EXPECT_THROW(ClusterTopology{bad}, ConfigError);
    bad = smallCluster();
    bad.sizeClassWeights.pop_back();
    EXPECT_THROW(ClusterTopology{bad}, ConfigError);
    ClusterRunner runner(smallCluster(), 1);
    EXPECT_THROW(runner.scheduleRebuild(99, 1.0), InternalError);
}

} // namespace
} // namespace declust
