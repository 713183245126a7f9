#include "core/array_sim.hpp"

#include "array/controller.hpp"
#include "core/health_monitor.hpp"
#include "core/reconstructor.hpp"
#include "core/scrubber.hpp"
#include "designs/select.hpp"
#include "disk/disk.hpp"
#include "disk/fault_model.hpp"
#include "disk/geometry.hpp"
#include "layout/declustered.hpp"
#include "layout/layout.hpp"
#include "layout/left_symmetric.hpp"
#include "layout/spared.hpp"
#include "sim/seed.hpp"
#include "sim/time.hpp"
#include "stats/shard_merge.hpp"
#include "util/annotations.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "workload/synthetic.hpp"

namespace declust {

double
SimConfig::alpha() const
{
    return static_cast<double>(stripeUnits - 1) /
           static_cast<double>(numDisks - 1);
}

std::unique_ptr<Layout>
makeLayout(int numDisks, int stripeUnits, const DiskGeometry &geometry,
           int unitSectors, bool distributedSparing)
{
    geometry.validate();
    if (unitSectors < 1)
        DECLUST_FATAL("stripe unit of ", unitSectors,
                      " sectors must be at least 1 sector");
    const std::int64_t unitsPerDisk =
        geometry.totalSectors() / unitSectors;
    if (unitsPerDisk < 1) {
        DECLUST_FATAL("stripe unit of ", unitSectors,
                      " sectors does not fit a disk of ",
                      geometry.totalSectors(), " sectors");
    }
    if (unitsPerDisk > INT32_MAX)
        DECLUST_FATAL("disk of ", unitsPerDisk, " units is too large");
    if (distributedSparing) {
        // The sparing layout maps tuples of G+1 (live stripe + spare),
        // declustered over more than G+1 disks.
        if (stripeUnits + 1 >= numDisks) {
            DECLUST_FATAL("distributed sparing needs G + 1 < C (got G=",
                          stripeUnits, ", C=", numDisks, ")");
        }
        SelectedDesign selected = selectDesign(numDisks, stripeUnits + 1);
        if (!selected.exactG) {
            DECLUST_FATAL("no sparing design with k=", stripeUnits + 1,
                          " on ", numDisks, " disks");
        }
        return std::make_unique<SparedDeclusteredLayout>(
            std::move(selected.design), static_cast<int>(unitsPerDisk));
    }
    if (stripeUnits == numDisks) {
        return std::make_unique<LeftSymmetricLayout>(
            numDisks, static_cast<int>(unitsPerDisk));
    }
    SelectedDesign selected = selectDesign(numDisks, stripeUnits);
    if (!selected.exactG) {
        logWarn("layout uses G=", selected.design.k(),
                " instead of requested G=", stripeUnits);
    }
    return std::make_unique<DeclusteredLayout>(
        std::move(selected.design), static_cast<int>(unitsPerDisk));
}

ArraySimulation::ArraySimulation(const SimConfig &config) : config_(config)
{
    // Configuration mistakes are the caller's, not library bugs.
    if (config_.numDisks < 3)
        DECLUST_FATAL("array too small: C=", config_.numDisks);
    if (config_.stripeUnits < 2 ||
        config_.stripeUnits > config_.numDisks) {
        DECLUST_FATAL("parity stripe size G=", config_.stripeUnits,
                      " must satisfy 2 <= G <= C=", config_.numDisks,
                      " (G = 2 is declustered mirroring, G = C RAID 5)");
    }

    ArrayParams params;
    params.geometry = config_.geometry;
    params.scheduler = config_.scheduler;
    params.valueSeed = taggedSeed(config_.seed, 0x5eedf00d);
    params.prioritizeUserIo = config_.prioritizeUserIo;
    params.trackBuffer = config_.trackBuffer;
    params.unitSectors = config_.unitSectors;
    params.controllerOverheadMs = config_.controllerOverheadMs;
    params.xorOverheadMsPerUnit = config_.xorOverheadMsPerUnit;
    params.dataPlane = config_.dataPlane;
    params.hedgeAfterMs = config_.hedgeAfterMs;

    controller_ = std::make_unique<ArrayController>(
        eq_,
        makeLayout(config_.numDisks, config_.stripeUnits,
                   config_.geometry, params.unitSectors,
                   config_.distributedSparing),
        params);

    // Fail-slow rides on the fault-model hooks, so a fail-slow disk
    // forces the models on even with both error rates at zero (a
    // zero-rate model draws nothing and stays timing-identical).
    if (config_.latentErrorProb > 0 || config_.transientReadProb > 0 ||
        config_.failSlowDisk >= 0) {
        FaultConfig fc;
        fc.latentErrorProb = config_.latentErrorProb;
        fc.transientReadProb = config_.transientReadProb;
        fc.maxRetries = config_.faultMaxRetries;
        fc.seed = taggedSeed(config_.seed, 0xfa1700d1u);
        controller_->attachFaultModels(fc);
    }
    if (config_.failSlowDisk >= 0) {
        FailSlowConfig slow;
        slow.serviceSlowdown = config_.failSlowFactor;
        slow.stallProb = config_.failSlowStallProb;
        slow.stallMs = config_.failSlowStallMs;
        slow.defectProbPerRead = config_.failSlowDefectProb;
        controller_->beginFailSlow(config_.failSlowDisk, slow);
    }

    if (config_.scrubIntervalSec < 0)
        DECLUST_FATAL("scrub interval ", config_.scrubIntervalSec,
                      " sec is negative (0 disables scrubbing)");
    if (config_.hotSpares < 0)
        DECLUST_FATAL("hot spare count ", config_.hotSpares,
                      " is negative");
    sparesLeft_ = config_.hotSpares;
    if (config_.healthMonitor) {
        health_ = std::make_unique<HealthMonitor>(config_.numDisks,
                                                  HealthConfig{});
        controller_->setAccessTracer(
            [this](const AccessRecord &r) { health_->observe(r); });
    }

    WorkloadConfig wl;
    wl.accessesPerSec = config_.accessesPerSec;
    wl.readFraction = config_.readFraction;
    wl.accessUnits = config_.accessUnits;
    wl.seed = config_.seed;
    workload_ = std::make_unique<SyntheticWorkload>(eq_, *controller_, wl);

    if (config_.scrubIntervalSec > 0) {
        scrubber_ = std::make_unique<Scrubber>(*controller_, eq_,
                                               config_.scrubIntervalSec);
        scrubber_->start();
    }
}

ArraySimulation::~ArraySimulation()
{
    // Stop arrivals so destruction does not leave self-rescheduling
    // events pointing at a dead workload (the queue dies with us anyway,
    // but be tidy if callers keep the event queue alive longer).
    workload_->stop();
    if (scrubber_)
        scrubber_->stop();
}

PhaseStats
ArraySimulation::collectPhase() const
{
    const UserStats &us = controller_->userStats();
    PhaseStats ps;
    ps.meanReadMs = us.readMs.mean();
    ps.meanWriteMs = us.writeMs.mean();
    ps.meanMs = us.allMs.mean();
    ps.p90Ms = us.allHist.count() ? us.allHist.quantile(0.90) : 0.0;
    ps.p99Ms = us.allHist.count() ? us.allHist.quantile(0.99) : 0.0;
    ps.p999Ms = us.allHist.count() ? us.allHist.quantile(0.999) : 0.0;
    ps.reads = us.readsDone;
    ps.writes = us.writesDone;
    double util = 0.0;
    for (int d = 0; d < controller_->numDisks(); ++d)
        util += controller_->disk(d).utilization();
    ps.meanDiskUtilization = util / controller_->numDisks();
    return ps;
}

PhaseSample
ArraySimulation::samplePhase(double windowSec) const
{
    const UserStats &us = controller_->userStats();
    PhaseSample sample;
    sample.readMs = us.readMs;
    sample.writeMs = us.writeMs;
    sample.allMs = us.allMs;
    sample.allHist = us.allHist;
    sample.reads = us.readsDone;
    sample.writes = us.writesDone;
    double util = 0.0;
    for (int d = 0; d < controller_->numDisks(); ++d)
        util += controller_->disk(d).utilization();
    sample.diskUtilization.add(util / controller_->numDisks(),
                               windowSec);
    return sample;
}

void
ArraySimulation::resetStats()
{
    controller_->resetStats();
    windowStart_ = lifetimeCounters();
}

WindowCounters
ArraySimulation::lifetimeCounters() const
{
    WindowCounters now;
    now.hedges = controller_->hedgeStats();
    if (scrubber_)
        now.scrub = scrubber_->stats();
    now.sectorRepairs = controller_->faultStats().sectorRepairs;
    return now;
}

WindowCounters
ArraySimulation::windowCounters() const
{
    WindowCounters w = lifetimeCounters();
    const WindowCounters &s = windowStart_;
    w.hedges.launched -= s.hedges.launched;
    w.hedges.wins -= s.hedges.wins;
    w.hedges.wasted -= s.hedges.wasted;
    w.scrub.unitsScrubbed -= s.scrub.unitsScrubbed;
    w.scrub.defectsRepaired -= s.scrub.defectsRepaired;
    w.scrub.unitsLost -= s.scrub.unitsLost;
    w.scrub.unitsSkipped -= s.scrub.unitsSkipped;
    w.scrub.passes -= s.scrub.passes;
    w.sectorRepairs -= s.sectorRepairs;
    return w;
}

PhaseStats
ArraySimulation::runFaultFree(double warmupSec, double measureSec)
{
    workload_->start();
    eq_.runUntil(eq_.now() + secToTicks(warmupSec));
    resetStats();
    eq_.runUntil(eq_.now() + secToTicks(measureSec));
    return collectPhase();
}

void
ArraySimulation::drain()
{
    workload_->stop();
    const bool ok = eq_.runUntilCondition(
        [this] { return controller_->quiescent(); });
    DECLUST_ASSERT(ok || controller_->quiescent(),
                   "array failed to drain");
}

void
ArraySimulation::failDiskForRebuild(int disk)
{
    // Cluster arrivals are injected externally (no SyntheticWorkload to
    // stop), so drain() does not apply. Step one event at a time until
    // the controller has no user work in flight: arrivals scheduled for
    // later ticks stay pending and run against the degraded array.
    while (!controller_->quiescent()) {
        const bool stepped = eq_.step();
        DECLUST_ASSERT(stepped,
                       "event core drained with user work in flight");
    }
    controller_->failDisk(disk);
}

void
ArraySimulation::beginRebuild()
{
    DECLUST_ASSERT(controller_->failedDisk() >= 0,
                   "beginRebuild() needs a failed disk");
    DECLUST_ASSERT(!rebuildActive(),
                   "beginRebuild() while a rebuild is running");
    ReconConfig rc;
    rc.algorithm = config_.algorithm;
    rc.processes = config_.reconProcesses;
    rc.throttleDelay = config_.reconThrottle;
    rc.distributedSparing = config_.distributedSparing;
    DECLUST_ANALYZE_SUPPRESS(
        "hot-path-alloc: one allocation per rebuild start — a rare "
        "barrier-scheduled control event, not per-request work; the "
        "Reconstructor itself then runs allocation-free");
    rebuild_ = std::make_unique<Reconstructor>(*controller_, rc);
    // Completion is polled at epoch barriers; nothing to do inline.
    rebuild_->start([] {});
}

bool
ArraySimulation::rebuildActive() const
{
    return rebuild_ && !rebuild_->finished();
}

const ReconReport *
ArraySimulation::rebuildReport() const
{
    return rebuild_ && rebuild_->finished() ? &rebuild_->report()
                                            : nullptr;
}

PhaseStats
ArraySimulation::failAndRunDegraded(double warmupSec, double measureSec,
                                    int disk)
{
    drain();
    controller_->failDisk(disk);
    workload_->start();
    eq_.runUntil(eq_.now() + secToTicks(warmupSec));
    resetStats();
    eq_.runUntil(eq_.now() + secToTicks(measureSec));
    return collectPhase();
}

CopybackOutcome
ArraySimulation::copyback()
{
    DECLUST_ASSERT(controller_->spareRemapActive(),
                   "copyback() needs a completed distributed-sparing "
                   "reconstruction");
    workload_->start();
    resetStats();
    controller_->beginCopyback();
    const Tick start = eq_.now();

    // Sweep the remapped disk with the same degree of parallelism as
    // reconstruction. Offsets that need no copy are skipped inline;
    // copybackOffset() is only invoked for real copies, so its callback
    // always arrives asynchronously (after disk I/O).
    struct Sweep
    {
        int nextOffset = 0;
        int active = 0;
        std::int64_t copied = 0;
        bool complete = false;
    };
    auto sweep = std::make_shared<Sweep>();
    sweep->active = config_.reconProcesses;
    const int remapDisk = controller_->remappedDisk();

    std::function<void()> run = [this, sweep, remapDisk, &run] {
        for (;;) {
            if (sweep->nextOffset >= controller_->unitsPerDisk()) {
                if (--sweep->active == 0) {
                    controller_->finishCopyback();
                    sweep->complete = true;
                }
                return;
            }
            const int offset = sweep->nextOffset++;
            const auto su =
                controller_->layout().invert(remapDisk, offset);
            if (!su || su->pos >= controller_->layout().stripeWidth())
                continue; // unmapped or spare: nothing to copy
            controller_->copybackOffset(offset, [sweep, &run](bool c) {
                sweep->copied += c;
                run();
            });
            return;
        }
    };
    for (int p = 0; p < config_.reconProcesses; ++p)
        run();
    const bool ok = eq_.runUntilCondition(
        [sweep] { return sweep->complete; });
    DECLUST_ASSERT(ok && sweep->complete, "copyback did not finish");

    CopybackOutcome outcome;
    outcome.copybackTimeSec = ticksToSec(eq_.now() - start);
    outcome.unitsCopied = sweep->copied;
    outcome.userDuringCopyback = collectPhase();
    return outcome;
}

ReconOutcome
ArraySimulation::runReconstruction()
{
    resetStats();

    ReconConfig rc;
    rc.algorithm = config_.algorithm;
    rc.processes = config_.reconProcesses;
    rc.throttleDelay = config_.reconThrottle;
    rc.distributedSparing = config_.distributedSparing;
    Reconstructor recon(*controller_, rc);

    bool complete = false;
    recon.start([&complete] { complete = true; });
    const bool ok =
        eq_.runUntilCondition([&complete] { return complete; });
    DECLUST_ASSERT(ok && recon.finished(),
                   "event queue drained before reconstruction finished");

    ReconOutcome outcome;
    outcome.report = recon.report();
    outcome.userDuringRecon = collectPhase();
    outcome.totalRepairSec = outcome.report.reconstructionTimeSec;
    return outcome;
}

ReconOutcome
ArraySimulation::reconstruct()
{
    DECLUST_ASSERT(controller_->failedDisk() >= 0,
                   "reconstruct() needs a failed disk "
                   "(call failAndRunDegraded first)");
    workload_->start();
    // Waiting for the replacement drive: degraded service continues.
    if (config_.replacementDelaySec > 0)
        eq_.runUntil(eq_.now() + secToTicks(config_.replacementDelaySec));

    ReconOutcome outcome = runReconstruction();
    outcome.totalRepairSec += config_.replacementDelaySec;
    return outcome;
}

ReconOutcome
ArraySimulation::retireDisk(int disk)
{
    if (controller_->failedDisk() >= 0)
        DECLUST_FATAL("cannot retire disk ", disk, ": disk ",
                      controller_->failedDisk(),
                      " is already failed and under repair");
    if (sparesLeft_ <= 0)
        DECLUST_FATAL("retiring disk ", disk,
                      " needs a hot spare and the pool is empty "
                      "(hotSpares=", config_.hotSpares, ")");
    --sparesLeft_;
    drain();
    controller_->failDisk(disk);
    workload_->start();
    // The spare is already on line: no replacement-ordering delay, the
    // repair window is exactly the reconstruction time.
    return runReconstruction();
}

} // namespace declust
