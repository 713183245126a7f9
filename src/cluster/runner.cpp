#include "cluster/runner.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <tuple>

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

/**
 * Most epochs one round advances. Longer windows spread the barrier and
 * the hand-over over more epochs, but draw ahead and stage more
 * arrivals per round.
 */
constexpr int kWindowCap = 64;

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
    // Keep the lowest (epoch, array) failure and go on: an array that
    // would fail earlier in the window may still be ahead in the list.
    WorkerError &err = errors_[static_cast<std::size_t>(w)];
    const auto fail = [&err](int epoch, int array) {
        if (!err.error ||
            std::tie(epoch, array) < std::tie(err.epoch, err.array))
            err = {epoch, array, std::current_exception()};
    };
    const auto advance = [&](int i) {
        try {
            advanceArray(i, w);
        } catch (...) {
            fail(slots_[static_cast<std::size_t>(i)].epoch, i);
        }
    };
    // Worker 0 first draws ahead: arrivals need no cluster state, so
    // only their steering stays on the serial path.
    if (w == 0) {
        try {
            router_.drawUntil(drawTo_);
        } catch (...) {
            fail(windowStart_, -1);
        }
    }
    // Own arrays, front to back.
    for (int i = w; i < n; i += stride)
        if (claim(i))
            advance(i);
    // Then help: the other owners' unstarted arrays, back to front, so
    // an owner and its helpers meet in the middle of its list.
    for (int k = 1; k < stride; ++k) {
        const int owner = (w + k) % stride;
        for (int i = owner + (n - 1 - owner) / stride * stride; i >= owner;
             i -= stride)
            if (claim(i))
                advance(i);
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
    slot.epoch = windowStart_;

    if (slot.pendingFail >= 0) {
        sim.failDiskForRebuild(slot.pendingFail);
        sim.beginRebuild();
        slot.pendingFail = -1;
    }

    ArrayController &ctl = sim.controller();
    auto &buf = buffers_[s];
    std::size_t next = 0;
    for (int e = windowStart_; e < windowEnd_; ++e) {
        slot.epoch = e;
        const Tick epochEnd = epochTicks_ * static_cast<Tick>(e + 1);
        // The buffer holds the window's arrivals in time order; this
        // epoch's are the ones before its end.
        for (; next < buf.size() && buf[next].when < epochEnd; ++next) {
            const Arrival &a = buf[next];
            // A repair drain can leave this array's clock past an
            // arrival tick; the request then queues behind the drain
            // (what a real front end would observe), keeping causality
            // intact.
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

        eq.runUntil(epochEnd);

        // Census and its counter fold read and write only this array's
        // state, so the advancing worker takes them here instead of
        // the coordinator taking all of them serially at the barrier.
        ArrayCensus &c = census_[s];
        c = topology_.snapshot(i);
        // Later epochs of the window were steered on an unimpaired
        // census; if this one is impaired, that steering was wrong.
        if (config_.avoidImpaired && e + 1 < windowEnd_ && c.impaired())
            DECLUST_PANIC("array ", i, " became impaired in epoch ", e,
                          " inside a window that assumed it could not");
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
    }
    buf.clear();
    if (wallProbe_)
        slot.end = wallProbe_();
}

bool
ClusterRunner::steeringFixed() const
{
    // The router reads the census only for avoidance, and only through
    // impaired(). Inside a window no array can turn degraded or
    // rebuilding without a planned failure, nor slow without a monitor.
    if (!config_.avoidImpaired)
        return true;
    for (int i = 0; i < topology_.arrays(); ++i) {
        const auto s = static_cast<std::size_t>(i);
        if (census_[s].impaired() || slots_[s].pendingFail >= 0 ||
            topology_.array(i).healthMonitor())
            return false;
    }
    return true;
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
    // a window's traffic on one array, so every buffer gets room for a
    // full window, and the router's queue for more than the two
    // windows it can hold — steady-state routing then never
    // reallocates.
    const auto perWindow =
        static_cast<std::size_t>(config_.requestsPerSec *
                                 config_.epochSec * kWindowCap) +
        64;
    for (auto &b : buffers_)
        b.reserve(perWindow);
    router_.reserve(3 * perWindow);

    ClusterResult res;
    const int active = std::min(workers_, n);
    if (wallProbe_)
        res.wall.advanceSec.assign(static_cast<std::size_t>(active), 0.0);

    std::uint64_t eventsAtMeasureStart = 0;
    // Built once: the round body is the same every round.
    const std::function<void(int)> round = [this](int w) { runWorker(w); };
    // The first window's arrivals are drawn here; every later window's
    // were drawn ahead by worker 0 in the round before it.
    router_.drawUntil(epochTicks_ *
                      static_cast<Tick>(std::min(kWindowCap, totalEpochs)));

    for (int e = 0; e < totalEpochs; e = windowEnd_) {
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
        // A window stops short of the next barrier that has work to do.
        int end = e < warmupEpochs ? warmupEpochs : totalEpochs;
        for (const PlannedRebuild &p : planned_) {
            if (p.epoch == e) {
                ArraySlot &slot = slots_[static_cast<std::size_t>(p.array)];
                slot.pendingFail = p.disk;
                slot.rebuildCounted = false;
            } else if (p.epoch > e) {
                end = std::min(end, p.epoch);
            }
        }
        windowStart_ = e;
        windowEnd_ = steeringFixed() ? std::min(end, e + kWindowCap) : e + 1;
        drawTo_ = epochTicks_ *
                  static_cast<Tick>(
                      std::min(windowEnd_ + kWindowCap, totalEpochs));
        // Steering runs serially against the last barrier's census:
        // worker interleaving can never influence where a request goes.
        router_.assignUntil(epochTicks_ * static_cast<Tick>(windowEnd_),
                            census_, buffers_, counters_);

        // ---- parallel: owners advance their arrays, then help ------
        if (pool_)
            pool_->runRound(active, round);
        else
            round(0);
        ++round_;

        // Arrays fail independently and every array runs its whole
        // window, so the lowest failing (epoch, array) is the failure a
        // run of one epoch per round on one worker meets first: the
        // error surfaced is the same at any worker count.
        const WorkerError *firstError = nullptr;
        for (const WorkerError &err : errors_)
            if (err.error &&
                (!firstError || std::tie(err.epoch, err.array) <
                                    std::tie(firstError->epoch,
                                             firstError->array)))
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
    res.rounds = static_cast<int>(round_);
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
