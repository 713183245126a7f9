#include "cluster/runner.hpp"

#include <algorithm>
#include <cmath>
#include <exception>

#include "array/controller.hpp"
#include "cluster/census.hpp"
#include "cluster/router.hpp"
#include "cluster/topology.hpp"
#include "core/array_sim.hpp"
#include "core/reconstructor.hpp"
#include "harness/worker_pool.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "stats/shard_merge.hpp"
#include "util/error.hpp"

namespace declust {

namespace {

/** Whole epochs covering @p sec (>= 1 when sec > 0). */
int
epochsFor(double sec, double epochSec)
{
    return static_cast<int>(std::ceil(sec / epochSec - 1e-9));
}

} // namespace

ClusterRunner::ClusterRunner(const ClusterConfig &config, int workers)
    : config_(config),
      topology_(config),
      router_(config, topology_.dataUnitsPerArray()),
      workers_(resolveWorkers(workers)),
      slots_(static_cast<std::size_t>(topology_.arrays()))
{
    const auto n = static_cast<std::size_t>(topology_.arrays());
    buffers_.resize(n);
    census_.resize(n);
    counters_.resize(n);
    // Workers beyond the array count would own nothing; the pool only
    // spawns helpers for workers that do.
    const int active = std::min(workers_, topology_.arrays());
    errors_.resize(static_cast<std::size_t>(active));
    if (active > 1)
        pool_ = std::make_unique<WorkerPool>(active);
}

// Out of line: joins the pool's helpers before the topology goes.
ClusterRunner::~ClusterRunner() = default;

void
ClusterRunner::scheduleRebuild(int array, double atSec, int disk)
{
    DECLUST_ASSERT(!ran_, "scheduleRebuild() must precede run()");
    DECLUST_ASSERT(array >= 0 && array < topology_.arrays(),
                   "rebuild array ", array, " out of range");
    DECLUST_ASSERT(disk >= 0 && disk < config_.array.numDisks,
                   "rebuild disk ", disk, " out of range");
    DECLUST_ASSERT(atSec >= 0, "rebuild time ", atSec, " is negative");
    PlannedRebuild p;
    p.epoch = static_cast<int>(atSec / config_.epochSec);
    p.array = array;
    p.disk = disk;
    planned_.push_back(p);
}

bool
ClusterRunner::claim(int i)
{
    std::uint32_t expected = round_;
    return slots_[static_cast<std::size_t>(i)].claims.compare_exchange_strong(
        expected, round_ + 1, std::memory_order_acq_rel);
}

void
ClusterRunner::runWorker(int w)
{
    const int n = topology_.arrays();
    const int stride = std::min(workers_, n);
    int i = w;
    try {
        // Worker 0 first draws the next epoch's arrivals: they need no
        // cluster state, so only their steering stays on the serial path.
        if (w == 0 && drawNext_)
            router_.draw(epochEnd_, epochEnd_ + epochTicks_);
        // Own arrays, front to back.
        for (; i < n; i += stride)
            if (claim(i))
                advanceArray(i, w);
        // Then help: the other owners' unstarted arrays, back to front,
        // so an owner and its helpers meet in the middle of its list.
        for (int k = 1; k < stride; ++k) {
            const int owner = (w + k) % stride;
            for (i = owner + (n - 1 - owner) / stride * stride; i >= owner;
                 i -= stride)
                if (claim(i))
                    advanceArray(i, w);
        }
    } catch (...) {
        errors_[static_cast<std::size_t>(w)] = {i, std::current_exception()};
    }
}

void
ClusterRunner::advanceArray(int i, int w)
{
    const auto s = static_cast<std::size_t>(i);
    ArraySlot &slot = slots_[s];
    if (wallProbe_) {
        slot.worker = w;
        slot.start = wallProbe_();
    }
    ArraySimulation &sim = topology_.array(i);
    EventQueue &eq = sim.eventQueue();

    if (slot.pendingFail >= 0) {
        sim.failDiskForRebuild(slot.pendingFail);
        sim.beginRebuild();
        slot.pendingFail = -1;
    }

    ArrayController &ctl = sim.controller();
    auto &buf = buffers_[s];
    for (const Arrival &a : buf) {
        // A repair drain can leave this array's clock past an arrival
        // tick; the request then queues behind the drain (what a real
        // front end would observe), keeping causality intact.
        const Tick when = a.when > eq.now() ? a.when : eq.now();
        if (a.isRead) {
            eq.scheduleAt(when,
                          [&ctl, first = a.firstUnit, n = a.units] {
                              ctl.readUnits(first, n, [] {});
                          });
        } else {
            eq.scheduleAt(when,
                          [&ctl, first = a.firstUnit, n = a.units] {
                              ctl.writeUnits(first, n, [] {});
                          });
        }
    }
    buf.clear();

    eq.runUntil(epochEnd_);

    // Census and its counter fold read and write only this array's
    // state, so the advancing worker takes them here instead of the
    // coordinator taking all of them serially at the barrier.
    ArrayCensus &c = census_[s];
    c = topology_.snapshot(i);
    ClusterCounters &k = counters_[s];
    k.degradedEpochs += c.degraded ? 1 : 0;
    k.rebuildingEpochs += c.rebuilding ? 1 : 0;
    if (c.queueDepth > k.maxQueueDepth)
        k.maxQueueDepth = c.queueDepth;
    const ReconReport *r = sim.rebuildReport();
    if (r && !slot.rebuildCounted) {
        slot.rebuildCounted = true;
        k.rebuildsCompleted++;
        k.rebuiltUnits += r->cycles;
    }
    if (wallProbe_)
        slot.end = wallProbe_();
}

void
ClusterRunner::collectWalls(ClusterWallBreakdown &out)
{
    double first = slots_[0].start;
    double last = slots_[0].end;
    for (const ArraySlot &slot : slots_) {
        out.advanceSec[static_cast<std::size_t>(slot.worker)] +=
            slot.end - slot.start;
        first = std::min(first, slot.start);
        last = std::max(last, slot.end);
    }
    out.roundSec += last - first;
    if (lastRoundEnd_ >= 0.0)
        out.barrierSec += first - lastRoundEnd_;
    lastRoundEnd_ = last;
}

std::uint64_t
ClusterRunner::totalEventsExecuted() const
{
    std::uint64_t events = 0;
    for (int i = 0; i < topology_.arrays(); ++i)
        events += topology_.array(i).eventQueue().executed();
    return events;
}

ClusterResult
ClusterRunner::run(double warmupSec, double measureSec)
{
    DECLUST_ASSERT(!ran_, "ClusterRunner::run() is one-shot");
    DECLUST_ASSERT(warmupSec >= 0, "negative warmup");
    DECLUST_ASSERT(measureSec > 0, "measured window must be > 0 sec");
    ran_ = true;

    const int n = topology_.arrays();
    epochTicks_ = secToTicks(config_.epochSec);
    const int warmupEpochs =
        warmupSec > 0 ? epochsFor(warmupSec, config_.epochSec) : 0;
    const int measureEpochs = epochsFor(measureSec, config_.epochSec);
    const int totalEpochs = warmupEpochs + measureEpochs;

    // Pre-size the arrival staging: Zipf skew can concentrate most of
    // an epoch's traffic on one array, so every buffer gets room for a
    // full epoch — steady-state routing then never reallocates.
    const auto perEpoch =
        static_cast<std::size_t>(config_.requestsPerSec *
                                 config_.epochSec) +
        64;
    for (auto &b : buffers_)
        b.reserve(perEpoch);

    ClusterResult res;
    const int active = std::min(workers_, n);
    if (wallProbe_)
        res.wall.advanceSec.assign(static_cast<std::size_t>(active), 0.0);

    std::uint64_t eventsAtMeasureStart = 0;
    // Built once: the round body is the same every epoch.
    const std::function<void(int)> round = [this](int w) { runWorker(w); };
    router_.draw(0, epochTicks_);

    for (int e = 0; e < totalEpochs; ++e) {
        // ---- barrier: serial coordinator work -----------------------
        if (e == warmupEpochs) {
            // Measurement window opens: clear per-array stats and the
            // cluster counters; in-flight warmup ops complete into the
            // window like any open-loop phase boundary.
            for (int i = 0; i < n; ++i)
                topology_.array(i).resetStats();
            std::fill(counters_.begin(), counters_.end(),
                      ClusterCounters{});
            eventsAtMeasureStart = totalEventsExecuted();
        }
        for (const PlannedRebuild &p : planned_) {
            if (p.epoch == e) {
                ArraySlot &slot = slots_[static_cast<std::size_t>(p.array)];
                slot.pendingFail = p.disk;
                slot.rebuildCounted = false;
            }
        }
        epochEnd_ = epochTicks_ * static_cast<Tick>(e + 1);
        drawNext_ = e + 1 < totalEpochs;
        // Steering runs serially against the PREVIOUS epoch's census:
        // worker interleaving can never influence where a request goes.
        router_.assign(census_, buffers_, counters_);

        // ---- parallel: owners advance their arrays, then help ------
        if (pool_)
            pool_->runRound(active, round);
        else
            round(0);
        ++round_;

        // Arrays fail independently, so the lowest failing index is the
        // one a one-worker run meets first (a worker stops at its first
        // failure, and every lower array of its list already ran): the
        // error surfaced is the same at any worker count.
        const WorkerError *firstError = nullptr;
        for (const WorkerError &err : errors_)
            if (err.array >= 0 &&
                (!firstError || err.array < firstError->array))
                firstError = &err;
        if (firstError)
            std::rethrow_exception(firstError->error);
        if (wallProbe_)
            collectWalls(res.wall);
    }

    // ---- final merge, array-index order -----------------------------
    res.arrays = n;
    res.measuredEpochs = measureEpochs;
    res.totalEpochs = totalEpochs;
    res.measuredSec = measureEpochs * config_.epochSec;
    for (int i = 0; i < n; ++i) {
        const auto s = static_cast<std::size_t>(i);
        ArraySimulation &sim = topology_.array(i);
        const ArrayController &ctl = sim.controller();
        ClusterCounters &c = counters_[s];
        c.completedReads = ctl.userStats().readsDone;
        c.completedWrites = ctl.userStats().writesDone;
        if (sim.rebuildActive())
            c.rebuiltUnits += static_cast<std::uint64_t>(
                ctl.reconstructedCount());
        ShardMerge::into(res.phase, sim.samplePhase(res.measuredSec));
        res.counters.merge(c);
        const HedgeStats h = sim.windowCounters().hedges;
        res.hedges.launched += h.launched;
        res.hedges.wins += h.wins;
        res.hedges.wasted += h.wasted;
    }
    res.events = totalEventsExecuted() - eventsAtMeasureStart;
    res.sustainedIops =
        static_cast<double>(res.phase.reads + res.phase.writes) /
        res.measuredSec;
    res.finalCensus = census_;
    return res;
}

void
scheduleRollingRebuilds(ClusterRunner &runner, int k, double startSec,
                        double staggerSec, int disk)
{
    const int arrays = runner.topology().arrays();
    DECLUST_ASSERT(k >= 0 && k <= arrays, "rolling rebuild count ", k,
                   " out of range for ", arrays, " arrays");
    const int stride = k > 0 ? std::max(arrays / k, 1) : 1;
    for (int j = 0; j < k; ++j)
        runner.scheduleRebuild((j * stride) % arrays,
                               startSec + j * staggerSec, disk);
}

void
scheduleFailureBurst(ClusterRunner &runner, int k, double atSec,
                     int disk)
{
    scheduleRollingRebuilds(runner, k, atSec, 0.0, disk);
}

} // namespace declust
