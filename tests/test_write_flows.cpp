/**
 * @file
 * Pins for the controller's single-unit write flows — the four-access
 * read-modify-write, the G = 3 reconstruct-write and its fallback to
 * read-modify-write, mirrored writes, the parity-lost data-only write,
 * the degraded write that folds into parity, and the degraded
 * write-through to the rebuild target — plus a write lost to a second
 * failure mid-flight and the whole-stripe large write.
 *
 * The CI goldens run several of these paths only in aggregate, so each
 * case below runs a small seeded config that drives its flow with the
 * data plane verifying every combine, and asserts a fingerprint of the
 * run: events executed, every FaultStats field, user writes completed,
 * the mean response time and the data plane's combine and XOR counts;
 * with perf counters compiled in, also the six write-flow counters.
 * Any change to the event schedule, the XOR charges or the combines of
 * a flow moves the fingerprint.
 */
#include <cinttypes>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/array_sim.hpp"
#include "ec/data_plane.hpp"
#include "sim/time.hpp"
#include "stats/perf_counters.hpp"
#include "util/error.hpp"

namespace declust {
namespace {

SimConfig
smallConfig(int G)
{
    SimConfig cfg;
    cfg.numDisks = 7;
    cfg.stripeUnits = G;
    DiskGeometry g = DiskGeometry::ibm0661();
    g.cylinders = 20;
    g.tracksPerCyl = 2;
    cfg.geometry = g;
    cfg.accessesPerSec = 100.0;
    cfg.readFraction = 0.3;
    cfg.dataPlane = ec::DataPlaneMode::Verify;
    cfg.seed = 5;
    return cfg;
}

/** Drain, verify, and print the run's fingerprint on one line. */
std::string
fingerprint(ArraySimulation &sim)
{
    sim.drain();
    sim.controller().verifyConsistency();
    const ArrayController &c = sim.controller();
    const FaultStats &f = c.faultStats();
    const UserStats &u = c.userStats();
    const ec::DataPlane::Stats p = c.dataPlaneStats();
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "events=%" PRIu64 " medium=%" PRIu64 " diskFailed=%" PRIu64
        " repairs=%" PRIu64 " unrecoverable=%" PRIu64 " lossEvents=%" PRIu64
        " readsLost=%" PRIu64 " writesLost=%" PRIu64 " reconLost=%" PRIu64
        " writes=%" PRIu64 " meanMs=%.17g combines=%" PRIu64
        " xored=%" PRIu64,
        sim.eventQueue().executed(), f.mediumErrors, f.diskFailedIos,
        f.sectorRepairs, f.unrecoverableStripes, f.dataLossEvents,
        f.userReadsLost, f.userWritesLost, f.reconUnitsLost, u.writesDone,
        u.allMs.mean(), p.combinesChecked, p.unitsXored);
    return buf;
}

/** Per-case snapshot of the six write-flow perf counters. */
struct CounterSnapshot
{
#if DECLUST_PERF_COUNTERS
    PerfCounterBlock block = perfTls();

    static std::uint64_t
    now(PerfCounter counter)
    {
        return perfTls().counters[static_cast<std::size_t>(counter)];
    }

    std::uint64_t
    delta(PerfCounter counter) const
    {
        return now(counter) -
               block.counters[static_cast<std::size_t>(counter)];
    }

    /** rmw/reconstruct/mirrored/large/degraded/parityLost deltas. */
    std::string
    writeFlows() const
    {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "rmw=%" PRIu64 " recon=%" PRIu64 " mirrored=%" PRIu64
                      " large=%" PRIu64 " degraded=%" PRIu64
                      " parityLost=%" PRIu64,
                      delta(PerfCounter::RmwWrites),
                      delta(PerfCounter::ReconstructWrites),
                      delta(PerfCounter::MirroredWrites),
                      delta(PerfCounter::LargeWrites),
                      delta(PerfCounter::DegradedWrites),
                      delta(PerfCounter::ParityLostWrites));
        return buf;
    }
#endif
};

#if DECLUST_PERF_COUNTERS
#define EXPECT_WRITE_FLOWS(before, expected)                               \
    EXPECT_EQ((before).writeFlows(), expected)
#else
#define EXPECT_WRITE_FLOWS(before, expected) (void)(before)
#endif

TEST(WriteFlows, ReadModifyWriteAtG4)
{
    const CounterSnapshot before;
    SimConfig cfg = smallConfig(4);
    cfg.xorOverheadMsPerUnit = 0.25;
    ArraySimulation sim(cfg);
    sim.runFaultFree(0.3, 1.0);
    EXPECT_EQ(fingerprint(sim),
              "events=579 medium=0 diskFailed=0 repairs=0 unrecoverable=0 "
              "lossEvents=0 readsLost=0 writesLost=0 reconLost=0 writes=68 "
              "meanMs=98.337537735849082 combines=501 xored=1422");
    EXPECT_WRITE_FLOWS(before,
                       "rmw=81 recon=0 mirrored=0 large=0 degraded=0 "
                       "parityLost=0");
}

TEST(WriteFlows, ReconstructWriteAtG3)
{
    const CounterSnapshot before;
    SimConfig cfg = smallConfig(3);
    cfg.xorOverheadMsPerUnit = 0.25;
    ArraySimulation sim(cfg);
    sim.runFaultFree(0.3, 1.0);
    EXPECT_EQ(fingerprint(sim),
              "events=498 medium=0 diskFailed=0 repairs=0 unrecoverable=0 "
              "lossEvents=0 readsLost=0 writesLost=0 reconLost=0 writes=64 "
              "meanMs=68.49017647058821 combines=641 xored=1201");
    EXPECT_WRITE_FLOWS(before,
                       "rmw=0 recon=81 mirrored=0 large=0 degraded=0 "
                       "parityLost=0");
}

TEST(WriteFlows, ReconstructWriteFallsBackToRmwWhenTheOtherUnitIsLost)
{
    // Degraded at G = 3, the only read-modify-writes are the writes
    // whose other data unit sits on the failed disk.
    const CounterSnapshot before;
    ArraySimulation sim(smallConfig(3));
    sim.failAndRunDegraded(0.3, 1.0, 1);
    EXPECT_EQ(fingerprint(sim),
              "events=411 medium=0 diskFailed=0 repairs=0 unrecoverable=0 "
              "lossEvents=0 readsLost=0 writesLost=0 reconLost=0 writes=65 "
              "meanMs=78.92027184466022 combines=558 xored=894");
    EXPECT_WRITE_FLOWS(before,
                       "rmw=16 recon=45 mirrored=0 large=0 degraded=9 "
                       "parityLost=11");
}

TEST(WriteFlows, MirroredHealthy)
{
    const CounterSnapshot before;
    ArraySimulation sim(smallConfig(2));
    sim.runFaultFree(0.3, 1.0);
    EXPECT_EQ(fingerprint(sim),
              "events=336 medium=0 diskFailed=0 repairs=0 unrecoverable=0 "
              "lossEvents=0 readsLost=0 writesLost=0 reconLost=0 writes=64 "
              "meanMs=37.227235294117641 combines=840 xored=840");
    EXPECT_WRITE_FLOWS(before,
                       "rmw=0 recon=0 mirrored=81 large=0 degraded=0 "
                       "parityLost=0");
}

TEST(WriteFlows, MirroredWithALostPrimary)
{
    // Degraded, the surviving copy takes the write alone; during the
    // user-writes rebuild the write also goes through to the
    // replacement.
    const CounterSnapshot before;
    SimConfig cfg = smallConfig(2);
    cfg.algorithm = ReconAlgorithm::UserWrites;
    ArraySimulation sim(cfg);
    sim.failAndRunDegraded(0.3, 1.0, 2);
    sim.reconstruct();
    EXPECT_EQ(fingerprint(sim),
              "events=3676 medium=0 diskFailed=0 repairs=0 unrecoverable=0 "
              "lossEvents=0 readsLost=0 writesLost=0 reconLost=0 writes=796 "
              "meanMs=38.142159276018127 combines=1328 xored=840");
    EXPECT_WRITE_FLOWS(before,
                       "rmw=0 recon=0 mirrored=773 large=0 degraded=46 "
                       "parityLost=56");
}

TEST(WriteFlows, ParityLost)
{
    const CounterSnapshot before;
    SimConfig cfg = smallConfig(4);
    cfg.xorOverheadMsPerUnit = 0.25;
    ArraySimulation sim(cfg);
    sim.failAndRunDegraded(0.3, 1.0, 0);
    EXPECT_GT(sim.controller().userStats().writesDone, 0u);
    EXPECT_EQ(fingerprint(sim),
              "events=536 medium=0 diskFailed=0 repairs=0 unrecoverable=0 "
              "lossEvents=0 readsLost=0 writesLost=0 reconLost=0 writes=66 "
              "meanMs=92.986865384615399 combines=434 xored=1048");
    EXPECT_WRITE_FLOWS(before,
                       "rmw=59 recon=0 mirrored=0 large=0 degraded=7 "
                       "parityLost=15");
}

TEST(WriteFlows, DegradedFoldUnderBaseline)
{
    // Baseline rebuilds send no user work to the replacement: a write
    // to a lost unit folds into parity even mid-rebuild.
    const CounterSnapshot before;
    SimConfig cfg = smallConfig(4);
    cfg.xorOverheadMsPerUnit = 0.25;
    cfg.algorithm = ReconAlgorithm::Baseline;
    ArraySimulation sim(cfg);
    sim.failAndRunDegraded(0.3, 0.5, 3);
    sim.reconstruct();
    EXPECT_EQ(fingerprint(sim),
              "events=14008 medium=0 diskFailed=0 repairs=0 unrecoverable=0 "
              "lossEvents=0 readsLost=0 writesLost=0 reconLost=0 writes=1878 "
              "meanMs=123.45330416666644 combines=2809 xored=6038");
    EXPECT_WRITE_FLOWS(before,
                       "rmw=1658 recon=0 mirrored=0 large=0 degraded=141 "
                       "parityLost=124");
}

TEST(WriteFlows, DegradedWriteThroughToAReplacement)
{
    const CounterSnapshot before;
    SimConfig cfg = smallConfig(4);
    cfg.xorOverheadMsPerUnit = 0.25;
    cfg.algorithm = ReconAlgorithm::UserWrites;
    ArraySimulation sim(cfg);
    sim.failAndRunDegraded(0.3, 0.5, 3);
    sim.reconstruct();
    EXPECT_EQ(fingerprint(sim),
              "events=9341 medium=0 diskFailed=0 repairs=0 unrecoverable=0 "
              "lossEvents=0 readsLost=0 writesLost=0 reconLost=0 writes=1226 "
              "meanMs=118.91125667828105 combines=2082 xored=4584");
    EXPECT_WRITE_FLOWS(before,
                       "rmw=1090 recon=0 mirrored=0 large=0 degraded=92 "
                       "parityLost=89");
}

TEST(WriteFlows, DegradedWriteThroughToDistributedSpares)
{
    const CounterSnapshot before;
    SimConfig cfg = smallConfig(4);
    cfg.xorOverheadMsPerUnit = 0.25;
    cfg.algorithm = ReconAlgorithm::UserWrites;
    cfg.distributedSparing = true;
    ArraySimulation sim(cfg);
    sim.failAndRunDegraded(0.3, 0.5, 3);
    sim.reconstruct();
    EXPECT_TRUE(sim.controller().spareRemapActive());
    EXPECT_EQ(fingerprint(sim),
              "events=9543 medium=0 diskFailed=0 repairs=0 unrecoverable=0 "
              "lossEvents=0 readsLost=0 writesLost=0 reconLost=0 writes=1298 "
              "meanMs=134.27923458149812 combines=1964 xored=4264");
    EXPECT_WRITE_FLOWS(before,
                       "rmw=1154 recon=0 mirrored=0 large=0 degraded=83 "
                       "parityLost=103");
}

TEST(WriteFlows, WriteLostToASecondFailureMidFlight)
{
    const CounterSnapshot before;
    ArraySimulation sim(smallConfig(4));
    sim.failAndRunDegraded(0.3, 0.5, 1);
    ArrayController &ctl = sim.controller();
    EventQueue &eq = sim.eventQueue();
    eq.scheduleIn(secToTicks(0.05), [&ctl] { ctl.failSecondDisk(3); });
    eq.runUntil(eq.now() + secToTicks(1.0));
    EXPECT_GT(ctl.faultStats().diskFailedIos, 0u);
    EXPECT_GT(ctl.faultStats().userWritesLost, 0u);
    EXPECT_EQ(fingerprint(sim),
              "events=573 medium=0 diskFailed=8 repairs=0 unrecoverable=122 "
              "lossEvents=3 readsLost=11 writesLost=21 reconLost=0 writes=103 "
              "meanMs=65.338681818181811 combines=326 xored=712");
    EXPECT_WRITE_FLOWS(before,
                       "rmw=63 recon=0 mirrored=0 large=0 degraded=20 "
                       "parityLost=20");
}

TEST(WriteFlows, LargeWrite)
{
    // Six-unit writes at G = 4 cover at least one whole stripe (three
    // data units) each; the leftover units are read-modify-writes.
    const CounterSnapshot before;
    SimConfig cfg = smallConfig(4);
    cfg.xorOverheadMsPerUnit = 0.25;
    cfg.accessesPerSec = 30.0;
    cfg.accessUnits = 6;
    ArraySimulation sim(cfg);
    sim.runFaultFree(0.3, 1.0);
    EXPECT_EQ(fingerprint(sim),
              "events=433 medium=0 diskFailed=0 repairs=0 unrecoverable=0 "
              "lossEvents=0 readsLost=0 writesLost=0 reconLost=0 writes=19 "
              "meanMs=114.13778571428574 combines=488 xored=1396");
    EXPECT_WRITE_FLOWS(before,
                       "rmw=36 recon=0 mirrored=0 large=32 degraded=0 "
                       "parityLost=0");
}

TEST(WriteFlows, StripesWiderThanTheCombineGather)
{
    // With the data plane off the combines gather no inputs, so a
    // stripe wider than kMaxCheckedStripeWidth folds degraded writes
    // (68 other data units here) and computes large-write parity (69
    // data units) like any other.
    const CounterSnapshot before;
    SimConfig cfg = smallConfig(70);
    cfg.numDisks = 70;
    cfg.dataPlane = ec::DataPlaneMode::Off;
    cfg.accessesPerSec = 10.0;
    cfg.accessUnits = 100;
    ArraySimulation sim(cfg);
    sim.runFaultFree(0.2, 0.5);
    sim.failAndRunDegraded(0.2, 0.5, 1);
    sim.drain();
    sim.controller().verifyConsistency();
    EXPECT_GT(sim.controller().userStats().writesDone, 0u);
#if DECLUST_PERF_COUNTERS
    EXPECT_GT(before.delta(PerfCounter::LargeWrites), 0u);
    EXPECT_GT(before.delta(PerfCounter::DegradedWrites), 0u);
#endif
}

TEST(WriteFlows, VerifyingPlaneRejectsStripesWiderThanTheGather)
{
    // The verifying plane gathers a combine's inputs in a fixed array
    // of kMaxCheckedStripeWidth values; a wider stripe is a
    // configuration the simulator refuses, not an internal fault.
    SimConfig cfg = smallConfig(70);
    cfg.numDisks = 70;
    cfg.dataPlane = ec::DataPlaneMode::Verify;
    EXPECT_THROW(ArraySimulation{cfg}, ConfigError);
}

} // namespace
} // namespace declust
