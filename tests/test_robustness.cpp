/**
 * @file
 * Tests for the gray-failure robustness layer: the fail-slow fault
 * mode end to end, deadline-driven hedged reads (accounting
 * invariants, tail-latency effect, determinism), the online scrubber,
 * the disk health monitor, proactive retirement onto a hot spare, and
 * the defined ConfigError paths for invalid robustness configurations.
 */
#include <gtest/gtest.h>

#include "core/array_sim.hpp"
#include "core/health_monitor.hpp"
#include "core/scrubber.hpp"
#include "disk/fault_model.hpp"
#include "util/error.hpp"

namespace declust {
namespace {

SimConfig
smallConfig(int G = 4)
{
    SimConfig cfg;
    cfg.numDisks = 5;
    cfg.stripeUnits = G;
    DiskGeometry g = DiskGeometry::ibm0661();
    g.cylinders = 20;
    g.tracksPerCyl = 2;
    cfg.geometry = g;
    cfg.accessesPerSec = 40.0;
    cfg.readFraction = 0.5;
    cfg.seed = 7;
    return cfg;
}

/** A hard-to-miss gray failure: 4x service time plus frequent long
 * stalls on disk 0. */
SimConfig
failSlowConfig(double hedgeMs)
{
    SimConfig cfg = smallConfig();
    cfg.failSlowDisk = 0;
    cfg.failSlowFactor = 4.0;
    cfg.failSlowStallProb = 0.5;
    cfg.failSlowStallMs = 200.0;
    cfg.hedgeAfterMs = hedgeMs;
    return cfg;
}

// ---------------------------------------------------------------------
// Fail-slow fault mode, end to end.

TEST(FailSlow, DegradesResponseTimes)
{
    SimConfig slow = failSlowConfig(0.0);
    ArraySimulation degraded(slow);
    const PhaseStats with = degraded.runFaultFree(1.0, 4.0);

    ArraySimulation healthy(smallConfig());
    const PhaseStats without = healthy.runFaultFree(1.0, 4.0);

    // Half the accesses to disk 0 eat a 200 ms stall; the means and
    // the tail cannot fail to separate.
    EXPECT_GT(with.meanMs, without.meanMs * 1.5);
    EXPECT_GT(with.p99Ms, without.p99Ms);
}

TEST(FailSlow, DeterministicAcrossRuns)
{
    SimConfig cfg = failSlowConfig(0.0);
    ArraySimulation a(cfg);
    ArraySimulation b(cfg);
    const PhaseStats sa = a.runFaultFree(0.5, 2.0);
    const PhaseStats sb = b.runFaultFree(0.5, 2.0);
    EXPECT_EQ(sa.reads, sb.reads);
    EXPECT_EQ(sa.writes, sb.writes);
    EXPECT_DOUBLE_EQ(sa.meanMs, sb.meanMs);
    EXPECT_DOUBLE_EQ(sa.p999Ms, sb.p999Ms);
    EXPECT_EQ(a.eventQueue().executed(), b.eventQueue().executed());
}

TEST(FailSlow, OnAlreadyFailedDiskThrows)
{
    ArraySimulation sim(smallConfig());
    sim.runFaultFree(0.2, 0.2);
    sim.drain();
    sim.controller().failDisk(1);
    FailSlowConfig slow;
    slow.serviceSlowdown = 2.0;
    EXPECT_THROW(sim.controller().beginFailSlow(1, slow), ConfigError);
    EXPECT_THROW(sim.controller().beginFailSlow(-1, slow), ConfigError);
    EXPECT_THROW(sim.controller().beginFailSlow(99, slow), ConfigError);
}

// ---------------------------------------------------------------------
// Hedged reads.

TEST(Hedging, CutsTheTailOnAFailSlowDisk)
{
    ArraySimulation unhedged(failSlowConfig(0.0));
    const PhaseStats before = unhedged.runFaultFree(1.0, 4.0);

    ArraySimulation hedged(failSlowConfig(30.0));
    const PhaseStats after = hedged.runFaultFree(1.0, 4.0);

    // A 30 ms deadline fires long before a 200 ms stall resolves, and
    // the parity-reconstruct race completes on healthy disks.
    EXPECT_LT(after.p99Ms, before.p99Ms);
    EXPECT_GT(hedged.controller().hedgeStats().launched, 0u);
    EXPECT_GT(hedged.controller().hedgeStats().wins, 0u);
}

TEST(Hedging, AccountingInvariantHolds)
{
    ArraySimulation sim(failSlowConfig(30.0));
    sim.runFaultFree(1.0, 4.0);
    sim.drain();
    const HedgeStats &hs = sim.controller().hedgeStats();
    ASSERT_GT(hs.launched, 0u);
    // Every launched hedge either won the race or was beaten by the
    // primary (chain failures are the remainder; none occur without
    // injected errors or a second failure).
    EXPECT_EQ(hs.launched, hs.wins + hs.wasted);
}

TEST(Hedging, WindowCountersExcludeWarmup)
{
    ArraySimulation sim(failSlowConfig(30.0));
    sim.runFaultFree(1.0, 3.0);
    const HedgeStats &life = sim.controller().hedgeStats();
    const HedgeStats w = sim.windowCounters().hedges;
    // Warmup launched hedges too; the window's share leaves them out,
    // as resetStats() leaves out warmup response times.
    EXPECT_GT(w.launched, 0u);
    EXPECT_LT(w.launched, life.launched);
    EXPECT_LT(w.wins + w.wasted, life.wins + life.wasted);
    sim.resetStats();
    EXPECT_EQ(sim.windowCounters().hedges.launched, 0u);
}

TEST(Hedging, DeterministicAcrossRuns)
{
    SimConfig cfg = failSlowConfig(30.0);
    ArraySimulation a(cfg);
    ArraySimulation b(cfg);
    const PhaseStats sa = a.runFaultFree(0.5, 2.0);
    const PhaseStats sb = b.runFaultFree(0.5, 2.0);
    EXPECT_DOUBLE_EQ(sa.meanMs, sb.meanMs);
    EXPECT_EQ(a.controller().hedgeStats().launched,
              b.controller().hedgeStats().launched);
    EXPECT_EQ(a.controller().hedgeStats().wins,
              b.controller().hedgeStats().wins);
    EXPECT_EQ(a.controller().hedgeStats().wasted,
              b.controller().hedgeStats().wasted);
    EXPECT_EQ(a.eventQueue().executed(), b.eventQueue().executed());
}

TEST(Hedging, SurvivesLatentErrorsAndDegradedMode)
{
    SimConfig cfg = failSlowConfig(30.0);
    cfg.latentErrorProb = 0.0005;
    ArraySimulation sim(cfg);
    sim.runFaultFree(0.5, 2.0);
    // Degraded mode: hedges must refuse to launch (no redundancy to
    // race with) and every flow must still drain cleanly.
    sim.failAndRunDegraded(0.5, 2.0, 1);
    sim.drain();
    EXPECT_TRUE(sim.controller().quiescent());
}

TEST(Hedging, NegativeDeadlineThrows)
{
    SimConfig cfg = smallConfig();
    cfg.hedgeAfterMs = -1.0;
    EXPECT_THROW(ArraySimulation sim(cfg), ConfigError);
}

TEST(Hedging, SubTickDeadlineThrows)
{
    SimConfig cfg = smallConfig();
    cfg.hedgeAfterMs = 1e-9; // rounds to zero ticks: ambiguous
    EXPECT_THROW(ArraySimulation sim(cfg), ConfigError);
}

// ---------------------------------------------------------------------
// Online scrubbing.

TEST(Scrubbing, DrainsLatentDefects)
{
    SimConfig cfg = smallConfig();
    cfg.latentErrorProb = 0.001;
    cfg.scrubIntervalSec = 2.0;
    ArraySimulation sim(cfg);
    sim.runFaultFree(0.5, 6.0);
    ASSERT_NE(sim.scrubber(), nullptr);
    const ScrubStats &ss = sim.scrubber()->stats();
    EXPECT_GT(ss.unitsScrubbed, 0u);
    // The latent map seeded defects; multiple passes must have found
    // and repaired some in place.
    EXPECT_GT(ss.defectsRepaired, 0u);
    EXPECT_EQ(ss.unitsLost, 0u);
    sim.drain();
    EXPECT_TRUE(sim.controller().quiescent());
}

TEST(Scrubbing, WindowCountersExcludeWarmup)
{
    SimConfig cfg = smallConfig();
    cfg.latentErrorProb = 0.001;
    cfg.scrubIntervalSec = 2.0;
    ArraySimulation sim(cfg);
    sim.runFaultFree(2.0, 4.0);
    const ScrubStats &life = sim.scrubber()->stats();
    const WindowCounters w = sim.windowCounters();
    EXPECT_GT(w.scrub.unitsScrubbed, 0u);
    EXPECT_LT(w.scrub.unitsScrubbed, life.unitsScrubbed);
    EXPECT_LE(w.scrub.defectsRepaired, life.defectsRepaired);
    EXPECT_LE(w.sectorRepairs, sim.controller().faultStats().sectorRepairs);
    sim.resetStats();
    EXPECT_EQ(sim.windowCounters().scrub.unitsScrubbed, 0u);
}

TEST(Scrubbing, DeterministicAcrossRuns)
{
    SimConfig cfg = smallConfig();
    cfg.latentErrorProb = 0.001;
    cfg.scrubIntervalSec = 2.0;
    ArraySimulation a(cfg);
    ArraySimulation b(cfg);
    a.runFaultFree(0.5, 3.0);
    b.runFaultFree(0.5, 3.0);
    EXPECT_EQ(a.scrubber()->stats().unitsScrubbed,
              b.scrubber()->stats().unitsScrubbed);
    EXPECT_EQ(a.scrubber()->stats().defectsRepaired,
              b.scrubber()->stats().defectsRepaired);
    EXPECT_EQ(a.eventQueue().executed(), b.eventQueue().executed());
}

TEST(Scrubbing, PausesWhileDegraded)
{
    SimConfig cfg = smallConfig();
    cfg.scrubIntervalSec = 1.0;
    ArraySimulation sim(cfg);
    sim.runFaultFree(0.2, 0.5);
    sim.failAndRunDegraded(0.2, 1.0, 0);
    // While disk 0 is failed every tick backs off instead of issuing.
    EXPECT_GT(sim.scrubber()->stats().unitsSkipped, 0u);
    sim.drain();
    EXPECT_TRUE(sim.controller().quiescent());
}

TEST(Scrubbing, OnFailedDiskThrows)
{
    ArraySimulation sim(smallConfig());
    sim.runFaultFree(0.2, 0.2);
    sim.drain();
    ArrayController &ctl = sim.controller();
    ctl.failDisk(0);
    // Find a unit whose home is the failed disk: scrubbing it must be
    // rejected, not silently redirected.
    const Layout &layout = ctl.layout();
    bool checked = false;
    for (std::int64_t s = 0; s < layout.numStripes() && !checked; ++s) {
        for (int p = 0; p < layout.stripeWidth(); ++p) {
            if (layout.place(s, p).disk == 0) {
                EXPECT_THROW(ctl.scrubUnit(s, p, nullptr), ConfigError);
                checked = true;
                break;
            }
        }
    }
    EXPECT_TRUE(checked);
    EXPECT_THROW(ctl.scrubUnit(-1, 0, nullptr), ConfigError);
    EXPECT_THROW(ctl.scrubUnit(0, -1, nullptr), ConfigError);
}

TEST(Scrubbing, NonPositiveIntervalRejected)
{
    ArraySimulation sim(smallConfig());
    EXPECT_THROW(
        Scrubber(sim.controller(), sim.eventQueue(), 0.0),
        ConfigError);
    EXPECT_THROW(
        Scrubber(sim.controller(), sim.eventQueue(), -5.0),
        ConfigError);
    SimConfig cfg = smallConfig();
    cfg.scrubIntervalSec = -1.0;
    EXPECT_THROW(ArraySimulation bad(cfg), ConfigError);
}

// ---------------------------------------------------------------------
// Health monitor.

AccessRecord
record(int disk, double serviceMs, IoStatus status = IoStatus::Ok)
{
    AccessRecord r;
    r.disk = disk;
    r.dispatched = 0;
    r.completed = msToTicks(serviceMs);
    r.status = status;
    return r;
}

TEST(HealthMonitor, LearnsBaselineThenEscalatesOnLatency)
{
    HealthConfig hc;
    hc.baselineSamples = 100;
    HealthMonitor hm(3, hc);
    for (int i = 0; i < 100; ++i)
        hm.observe(record(0, 10.0));
    EXPECT_DOUBLE_EQ(hm.baselineMs(0), 10.0);
    EXPECT_EQ(hm.health(0), DiskHealth::Healthy);

    // 2x the baseline: the EWMA converges past the suspect threshold
    // but stays below 4x.
    for (int i = 0; i < 400; ++i)
        hm.observe(record(0, 25.0));
    EXPECT_EQ(hm.health(0), DiskHealth::Suspect);

    for (int i = 0; i < 400; ++i)
        hm.observe(record(0, 80.0));
    EXPECT_EQ(hm.health(0), DiskHealth::Retired);
    EXPECT_EQ(hm.retiredDisk(), 0);
    // Other disks are untouched.
    EXPECT_EQ(hm.health(1), DiskHealth::Healthy);
    EXPECT_EQ(hm.stats().escalations, 2u);
}

TEST(HealthMonitor, EscalatesOnErrorRate)
{
    HealthConfig hc;
    hc.baselineSamples = 50;
    HealthMonitor hm(2, hc);
    for (int i = 0; i < 50; ++i)
        hm.observe(record(1, 10.0));
    for (int i = 0; i < 500; ++i)
        hm.observe(record(1, 10.0, IoStatus::MediumError));
    EXPECT_EQ(hm.health(1), DiskHealth::Retired);
    EXPECT_EQ(hm.retiredDisk(), 1);
}

TEST(HealthMonitor, IgnoresHardFailedCompletions)
{
    HealthConfig hc;
    hc.baselineSamples = 10;
    HealthMonitor hm(1, hc);
    for (int i = 0; i < 10; ++i)
        hm.observe(record(0, 10.0));
    // Instant DiskFailed completions would crater the latency EWMA and
    // spike the error EWMA; they must not be folded in at all.
    for (int i = 0; i < 1000; ++i)
        hm.observe(record(0, 0.0, IoStatus::DiskFailed));
    EXPECT_EQ(hm.health(0), DiskHealth::Healthy);
}

TEST(HealthMonitor, EscalationHandlerFiresMonotonically)
{
    HealthConfig hc;
    hc.baselineSamples = 10;
    HealthMonitor hm(2, hc);
    std::vector<std::pair<int, DiskHealth>> seen;
    hm.setEscalationHandler([&seen](int disk, DiskHealth to) {
        seen.emplace_back(disk, to);
    });
    for (int i = 0; i < 10; ++i)
        hm.observe(record(0, 10.0));
    for (int i = 0; i < 600; ++i)
        hm.observe(record(0, 100.0));
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], (std::pair<int, DiskHealth>{
                           0, DiskHealth::Suspect}));
    EXPECT_EQ(seen[1], (std::pair<int, DiskHealth>{
                           0, DiskHealth::Retired}));
}

TEST(HealthMonitor, RejectsBadThresholds)
{
    HealthConfig hc;
    hc.ewmaAlpha = 0.0;
    EXPECT_THROW(HealthMonitor(2, hc), ConfigError);
    hc = HealthConfig{};
    hc.suspectFactor = 1.0;
    EXPECT_THROW(HealthMonitor(2, hc), ConfigError);
    hc = HealthConfig{};
    hc.retireFactor = 1.5; // below suspectFactor
    EXPECT_THROW(HealthMonitor(2, hc), ConfigError);
    hc = HealthConfig{};
    hc.baselineSamples = 0;
    EXPECT_THROW(HealthMonitor(2, hc), ConfigError);
    EXPECT_THROW(HealthMonitor(0, HealthConfig{}), ConfigError);
}

TEST(HealthMonitor, DetectsAFailSlowDiskInSimulation)
{
    SimConfig cfg = smallConfig();
    cfg.accessesPerSec = 80.0;
    cfg.healthMonitor = true;
    // Neutral fail-slow (slowdown 1, no stalls): attaches the fault
    // model so the gray failure can be switched on mid-run, after the
    // monitor has learned each disk's healthy baseline.
    cfg.failSlowDisk = 0;
    cfg.failSlowFactor = 1.0;
    ArraySimulation sim(cfg);
    sim.runFaultFree(0.5, 15.0);
    ASSERT_NE(sim.healthMonitor(), nullptr);
    for (int d = 0; d < cfg.numDisks; ++d)
        ASSERT_EQ(sim.healthMonitor()->health(d), DiskHealth::Healthy)
            << "disk " << d;

    FailSlowConfig slow;
    slow.serviceSlowdown = 4.0;
    slow.stallProb = 0.5;
    slow.stallMs = 200.0;
    sim.controller().beginFailSlow(0, slow);
    sim.runFaultFree(0.0, 15.0);
    // The degraded disk must stand out from its own baseline; healthy
    // disks must not be flagged.
    EXPECT_NE(sim.healthMonitor()->health(0), DiskHealth::Healthy);
    for (int d = 1; d < cfg.numDisks; ++d)
        EXPECT_EQ(sim.healthMonitor()->health(d), DiskHealth::Healthy)
            << "disk " << d;
}

// ---------------------------------------------------------------------
// Proactive retirement.

TEST(Retirement, RebuildsOntoASpareAndConsumesIt)
{
    SimConfig cfg = smallConfig();
    cfg.hotSpares = 1;
    ArraySimulation sim(cfg);
    sim.runFaultFree(0.5, 1.0);
    EXPECT_EQ(sim.sparesLeft(), 1);
    const ReconOutcome outcome = sim.retireDisk(2);
    EXPECT_EQ(sim.sparesLeft(), 0);
    EXPECT_GT(outcome.report.reconstructionTimeSec, 0.0);
    EXPECT_DOUBLE_EQ(outcome.totalRepairSec,
                     outcome.report.reconstructionTimeSec);
}

TEST(Retirement, WithoutASpareThrows)
{
    SimConfig cfg = smallConfig();
    cfg.hotSpares = 0;
    ArraySimulation sim(cfg);
    sim.runFaultFree(0.2, 0.5);
    EXPECT_THROW(sim.retireDisk(1), ConfigError);

    cfg.hotSpares = -1;
    EXPECT_THROW(ArraySimulation bad(cfg), ConfigError);
}

TEST(Retirement, WhileDegradedThrows)
{
    SimConfig cfg = smallConfig();
    cfg.hotSpares = 2;
    ArraySimulation sim(cfg);
    sim.runFaultFree(0.2, 0.5);
    sim.drain();
    sim.controller().failDisk(0);
    EXPECT_THROW(sim.retireDisk(1), ConfigError);
}

} // namespace
} // namespace declust
