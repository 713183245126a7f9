/**
 * @file
 * Pins for the controller's five regenerate flows — degraded read (with
 * the piggyback write), read-repair, hedged read, reconstruction cycle
 * and scrub repair — each of which regenerates one unit by reading the
 * stripe's G-1 survivors under the stripe lock and XORing them.
 *
 * The CI goldens leave several of these paths at zero (the robustness
 * golden shows no read-repairs, the MTTDL golden runs without latent
 * errors), so each case below runs a small seeded config that drives
 * its flow, and asserts a fingerprint of the run: events executed,
 * every FaultStats / HedgeStats / ScrubStats field, user reads and
 * writes completed, and the mean response time. Any change to the
 * event schedule of a flow moves the fingerprint.
 */
#include <cinttypes>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/array_sim.hpp"
#include "core/scrubber.hpp"
#include "sim/time.hpp"
#include "stats/perf_counters.hpp"

namespace declust {
namespace {

SimConfig
smallConfig()
{
    SimConfig cfg;
    cfg.numDisks = 7;
    cfg.stripeUnits = 4;
    DiskGeometry g = DiskGeometry::ibm0661();
    g.cylinders = 20;
    g.tracksPerCyl = 2;
    cfg.geometry = g;
    cfg.accessesPerSec = 100.0;
    cfg.readFraction = 0.5;
    cfg.seed = 7;
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
    const HedgeStats &h = c.hedgeStats();
    ScrubStats s;
    if (sim.scrubber())
        s = sim.scrubber()->stats();
    const UserStats &u = c.userStats();
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "events=%" PRIu64 " medium=%" PRIu64 " diskFailed=%" PRIu64
        " repairs=%" PRIu64 " unrecoverable=%" PRIu64 " lossEvents=%" PRIu64
        " readsLost=%" PRIu64 " writesLost=%" PRIu64 " reconLost=%" PRIu64
        " hedges=%" PRIu64 "/%" PRIu64 "/%" PRIu64 " scrub=%" PRIu64
        "/%" PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRIu64 " reads=%" PRIu64
        " writes=%" PRIu64 " meanMs=%.17g",
        sim.eventQueue().executed(), f.mediumErrors, f.diskFailedIos,
        f.sectorRepairs, f.unrecoverableStripes, f.dataLossEvents,
        f.userReadsLost, f.userWritesLost, f.reconUnitsLost, h.launched,
        h.wins, h.wasted, s.unitsScrubbed, s.defectsRepaired, s.unitsLost,
        s.unitsSkipped, s.passes, u.readsDone, u.writesDone, u.allMs.mean());
    return buf;
}

#if DECLUST_PERF_COUNTERS
/** This thread's count of @p counter (cases assert on deltas). */
std::uint64_t
perfCount(PerfCounter counter)
{
    return perfTls().counters[static_cast<std::size_t>(counter)];
}
#define EXPECT_FLOW_RAN(counter, before)                                   \
    EXPECT_GT(perfCount(PerfCounter::counter), before[PerfCounter::counter])
#endif

/** Per-case snapshot of the perf counters a flow is expected to bump. */
struct CounterSnapshot
{
#if DECLUST_PERF_COUNTERS
    PerfCounterBlock block = perfTls();
    std::uint64_t
    operator[](PerfCounter counter) const
    {
        return block.counters[static_cast<std::size_t>(counter)];
    }
#endif
};

TEST(RegenFlows, DegradedReadAndPiggyback)
{
    [[maybe_unused]] const CounterSnapshot before;
    SimConfig cfg = smallConfig();
    cfg.algorithm = ReconAlgorithm::RedirectPiggyback;
    ArraySimulation sim(cfg);
    sim.runFaultFree(0.3, 0.5);
    sim.failAndRunDegraded(0.3, 0.5, 1);
    sim.reconstruct();
#if DECLUST_PERF_COUNTERS
    EXPECT_FLOW_RAN(DegradedReads, before);
    EXPECT_FLOW_RAN(PiggybackWrites, before);
#endif
    EXPECT_EQ(fingerprint(sim),
              "events=6562 medium=0 diskFailed=0 repairs=0 "
              "unrecoverable=0 lossEvents=0 readsLost=0 writesLost=0 "
              "reconLost=0 hedges=0/0/0 scrub=0/0/0/0/0 reads=716 "
              "writes=802 meanMs=74.757750329380571");
}

TEST(RegenFlows, ReadRepairOfAMediumError)
{
    [[maybe_unused]] const CounterSnapshot before;
    SimConfig cfg = smallConfig();
    cfg.latentErrorProb = 5e-3;
    ArraySimulation sim(cfg);
    sim.runFaultFree(0.5, 8.0);
#if DECLUST_PERF_COUNTERS
    EXPECT_FLOW_RAN(ReadRepairs, before);
#endif
    EXPECT_GT(sim.controller().faultStats().sectorRepairs, 0u);
    EXPECT_EQ(fingerprint(sim),
              "events=2896 medium=33 diskFailed=0 repairs=11 "
              "unrecoverable=19 lossEvents=19 readsLost=17 "
              "writesLost=34 reconLost=0 hedges=0/0/0 scrub=0/0/0/0/0 "
              "reads=389 writes=413 meanMs=66.93101995012475");
}

TEST(RegenFlows, ReadRepairWhenTheHomeDiskDiesMidFlight)
{
    [[maybe_unused]] const CounterSnapshot before;
    ArraySimulation sim(smallConfig());
    sim.runFaultFree(0.3, 0.5);
    sim.failAndRunDegraded(0.3, 0.5, 1);
    ArrayController &ctl = sim.controller();
    EventQueue &eq = sim.eventQueue();
    eq.scheduleIn(secToTicks(0.2), [&ctl] { ctl.failSecondDisk(3); });
    eq.runUntil(eq.now() + secToTicks(1.0));
#if DECLUST_PERF_COUNTERS
    EXPECT_FLOW_RAN(ReadRepairs, before);
#endif
    EXPECT_GT(ctl.faultStats().diskFailedIos, 0u);
    EXPECT_EQ(fingerprint(sim),
              "events=828 medium=0 diskFailed=5 repairs=0 "
              "unrecoverable=120 lossEvents=1 readsLost=8 writesLost=21 "
              "reconLost=0 hedges=0/0/0 scrub=0/0/0/0/0 reads=67 "
              "writes=85 meanMs=48.363019736842091");
}

TEST(RegenFlows, HedgeWinsWastesAndFails)
{
    [[maybe_unused]] const CounterSnapshot before;
    SimConfig cfg = smallConfig();
    cfg.failSlowDisk = 0;
    cfg.failSlowFactor = 4.0;
    cfg.failSlowStallProb = 0.5;
    cfg.failSlowStallMs = 200.0;
    cfg.hedgeAfterMs = 30.0;
    cfg.latentErrorProb = 0.004;
    ArraySimulation sim(cfg);
    sim.runFaultFree(0.5, 8.0);
    sim.drain();
    const HedgeStats &h = sim.controller().hedgeStats();
    EXPECT_GT(h.wins, 0u);
    EXPECT_GT(h.wasted, 0u);
    // A launched hedge that neither won nor was wasted had its chain
    // fail on a survivor.
    EXPECT_GT(h.launched, h.wins + h.wasted);
#if DECLUST_PERF_COUNTERS
    EXPECT_FLOW_RAN(HedgesLaunched, before);
#endif
    EXPECT_EQ(fingerprint(sim),
              "events=3972 medium=40 diskFailed=0 repairs=7 "
              "unrecoverable=13 lossEvents=13 readsLost=8 writesLost=23 "
              "reconLost=0 hedges=268/77/187 scrub=0/0/0/0/0 reads=391 "
              "writes=419 meanMs=4173.7169296296288");
}

TEST(RegenFlows, ReconCycleLostToASecondFailure)
{
    [[maybe_unused]] const CounterSnapshot before;
    ArraySimulation sim(smallConfig());
    sim.runFaultFree(0.3, 0.5);
    sim.failAndRunDegraded(0.3, 0.5, 1);
    ArrayController &ctl = sim.controller();
    sim.eventQueue().scheduleIn(secToTicks(0.5), [&ctl] {
        if (ctl.reconstructing() && ctl.secondFailedDisk() < 0)
            ctl.failSecondDisk(3);
    });
    const ReconOutcome outcome = sim.reconstruct();
    EXPECT_GT(outcome.report.cycles, 0u);
    EXPECT_GT(outcome.report.lostUnits, 0u);
#if DECLUST_PERF_COUNTERS
    EXPECT_FLOW_RAN(ReconCycles, before);
#endif
    EXPECT_EQ(fingerprint(sim),
              "events=3638 medium=0 diskFailed=40 repairs=0 "
              "unrecoverable=119 lossEvents=3 readsLost=118 "
              "writesLost=127 reconLost=117 hedges=0/0/0 "
              "scrub=0/0/0/0/0 reads=432 writes=484 "
              "meanMs=52.469008733624463");
}

TEST(RegenFlows, ScrubRepair)
{
    [[maybe_unused]] const CounterSnapshot before;
    SimConfig cfg = smallConfig();
    cfg.latentErrorProb = 0.004;
    cfg.scrubIntervalSec = 1.0;
    ArraySimulation sim(cfg);
    sim.runFaultFree(0.5, 12.0);
    EXPECT_GT(sim.scrubber()->stats().defectsRepaired, 0u);
#if DECLUST_PERF_COUNTERS
    EXPECT_FLOW_RAN(ScrubRepairs, before);
#endif
    EXPECT_EQ(fingerprint(sim),
              "events=4804 medium=42 diskFailed=0 repairs=19 "
              "unrecoverable=22 lossEvents=22 readsLost=20 "
              "writesLost=42 reconLost=0 hedges=0/0/0 scrub=248/7/0/0/0 "
              "reads=591 writes=612 meanMs=72.825088113050825");
}

} // namespace
} // namespace declust
