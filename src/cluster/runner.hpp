/**
 * @file
 * Epoch-barriered cluster execution: per-array event cores advanced in
 * parallel by fixed-owner workers, with deterministic merge.
 *
 * Virtual time advances in fixed epochs. Each epoch is two steps:
 *
 *   1. SERIAL barrier work — apply any rebuild scheduled for this
 *      epoch, then the router steers the epoch's arrivals (drawn from
 *      one RNG stream during the previous round) around impaired
 *      arrays using the PREVIOUS epoch's census.
 *   2. PARALLEL round — worker 0 draws the next epoch's arrivals,
 *      then every worker advances the arrays it owns: each
 *      array schedules its buffered arrivals on its private event core,
 *      runs to the epoch horizon, then takes its own census snapshot
 *      and folds it into its own counters. An array touches nothing but
 *      its own state, so workers never contend and the dispatch streams
 *      are identical at any worker count.
 *
 * Every array has a fixed owner: worker w owns arrays w, w+W, w+2W,
 * ... and advances them, in that order, in every epoch of the run, so
 * an array's event core and disks stay in that worker's caches. A
 * worker that finishes its own arrays helps the others, taking their
 * not-yet-started arrays from the back of each owner's list; a
 * per-array claim stamp makes sure each array advances exactly once
 * per epoch. Helping only moves the tail of a slow owner's list, so
 * most arrays never leave their owner, yet one slow core (or one hot
 * array) does not hold every epoch back. Nothing an array allocates is
 * tied to a thread — its pools belong to its controller — so an array
 * may run on any worker. The round hand-over is WorkerPool's
 * spin-then-park barrier, and the calling thread is worker 0.
 *
 * Because every cross-array read happens serially at a barrier and
 * every per-array mutation happens inside that array's exclusive
 * advance, the whole run is a pure function of (config, seed):
 * byte-identical output for any --cluster-workers count, heap and
 * calendar queues, with or without the SIMD data plane.
 *
 * Wall-clock instrumentation is injected (setWallProbe) so this layer
 * stays free of real-time dependencies; the probe is called once at
 * the start and once at the end of every array advance, on the worker
 * running it, and only fills the observational fields of ClusterResult
 * — it never influences simulated behavior.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "array/controller.hpp"
#include "cluster/census.hpp"
#include "cluster/router.hpp"
#include "cluster/topology.hpp"
#include "harness/worker_pool.hpp"
#include "sim/time.hpp"
#include "stats/shard_merge.hpp"
#include "util/annotations.hpp"

namespace declust {

/**
 * Host time of the epoch loop, split by worker. Derived from the wall
 * probe's advance stamps alone; purely observational.
 */
struct ClusterWallBreakdown
{
    /** Per worker: seconds spent inside the advances it ran. */
    std::vector<double> advanceSec;
    /** Summed wall of the parallel rounds, first advance start to last
     * advance end of each epoch. Worker w idled for roundSec minus
     * advanceSec[w] of it, waiting for the round's slowest worker. */
    double roundSec = 0.0;
    /** Summed gaps between rounds: serial barrier work (rebuild
     * planning, steering the drawn arrivals) plus the round hand-over. */
    double barrierSec = 0.0;
};

/** Everything a cluster run measured, merged in array-index order. */
struct ClusterResult
{
    /** User response-time sample over the measured window. */
    PhaseSample phase;
    /** Routing / repair counters over the measured window. */
    ClusterCounters counters;
    /** Hedged-read deltas over the measured window. */
    HedgeStats hedges;
    /** Census of every array at the final barrier. */
    std::vector<ArrayCensus> finalCensus;

    /** Measured window, seconds (epoch-rounded up from the request). */
    double measuredSec = 0.0;
    /** Completed user operations per second over the window. */
    double sustainedIops = 0.0;
    /** Events executed across all arrays during the window. */
    std::uint64_t events = 0;

    int arrays = 0;
    int measuredEpochs = 0;
    int totalEpochs = 0;
    /** Per-worker split of the epoch loop's host time over ALL epochs
     * (warmup included); empty unless a wall probe was installed. */
    ClusterWallBreakdown wall;
};

/** Drives a ClusterTopology through epochs on fixed-owner workers. */
class ClusterRunner
{
  public:
    /**
     * @param config Cluster description (validated by ClusterTopology).
     * @param workers Workers advancing arrays, the calling thread
     *        included (<= 0 selects the hardware thread count; 1 runs
     *        inline with no threads). More workers than arrays leaves
     *        the extra ones idle.
     */
    ClusterRunner(const ClusterConfig &config, int workers);
    ~ClusterRunner();

    ClusterTopology &topology() { return topology_; }
    RequestRouter &router() { return router_; }
    int workers() const { return workers_; }

    /**
     * Plan a disk failure + rebuild on @p array at virtual time
     * @p atSec (applied at the barrier opening that epoch; the array
     * completes in-flight work, fails @p disk, and rebuilds while
     * serving). Call before run().
     */
    void scheduleRebuild(int array, double atSec, int disk = 0);

    /**
     * Install a monotonic wall-clock probe (seconds). Optional; used
     * only to fill ClusterResult::wall.
     * Injected so the cluster layer itself stays wall-clock-free.
     */
    void
    setWallProbe(std::function<double()> probe)
    {
        wallProbe_ = std::move(probe);
    }

    /**
     * Run warmup then the measured window (both rounded up to whole
     * epochs) and return the merged result. One run per runner.
     */
    ClusterResult run(double warmupSec, double measureSec);

  private:
    /** Per-array state written only by the worker advancing the array
     * inside a round (and by the coordinator between rounds). One cache
     * line each, so workers never share a line. */
    struct alignas(64) ArraySlot
    {
        /** Rounds that claimed this array so far; a worker claims it
         * for round r by moving it from r to r+1. */
        std::atomic<std::uint32_t> claims{0};
        /** Disk to fail at the next advance (-1 = none). */
        int pendingFail = -1;
        /** A completed rebuild was already folded into counters. */
        bool rebuildCounted = false;
        /** Probe stamps of this epoch's advance and the worker that ran
         * it (probe runs only). */
        int worker = 0;
        double start = 0.0;
        double end = 0.0;
    };

    /** One worker's share of a round: its own arrays, then help. */
    void runWorker(int w);

    /** Claim array @p i for the current round (false: already taken). */
    bool claim(int i);

    /** Advance array @p i to the current epoch horizon (claimant only). */
    DECLUST_HOT_PATH
    void advanceArray(int i, int w);

    /** Fold the finished epoch's probe stamps into @p out. */
    void collectWalls(ClusterWallBreakdown &out);

    /** Sum of events executed by every array's event core. */
    std::uint64_t totalEventsExecuted() const;

    struct PlannedRebuild
    {
        int epoch;
        int array;
        int disk;
    };

    /** The first array a worker saw throw this round (-1 = none). */
    struct WorkerError
    {
        int array = -1;
        std::exception_ptr error;
    };

    ClusterConfig config_;
    ClusterTopology topology_;
    RequestRouter router_;
    int workers_;
    /** Helper threads for workers 1..W-1 (null when one worker). */
    std::unique_ptr<WorkerPool> pool_;
    std::function<double()> wallProbe_;
    bool ran_ = false;

    std::vector<PlannedRebuild> planned_;
    /** Per-array arrival staging, filled by the router at barriers. */
    std::vector<std::vector<Arrival>> buffers_;
    /** Last epoch's census (what the router routes against); entry i is
     * written by whichever worker advances array i. */
    std::vector<ArrayCensus> census_;
    std::vector<ClusterCounters> counters_;
    std::vector<ArraySlot> slots_;
    std::vector<WorkerError> errors_;

    /** Epoch length; the round in progress, the horizon it advances
     * to, and whether worker 0 draws the next epoch's arrivals in it. */
    Tick epochTicks_ = 0;
    std::uint32_t round_ = 0;
    Tick epochEnd_ = 0;
    bool drawNext_ = false;
    /** Probe stamp ending the previous round (probe runs only). */
    double lastRoundEnd_ = -1.0;
};

/**
 * Scenario: k staggered "rolling" rebuilds — array stride*j fails disk
 * @p disk at startSec + j*staggerSec, so up to k repairs overlap the
 * serving workload at offsets across the cluster.
 */
void scheduleRollingRebuilds(ClusterRunner &runner, int k,
                             double startSec, double staggerSec,
                             int disk = 0);

/**
 * Scenario: correlated failure burst — k arrays (index stride apart)
 * all fail disk @p disk at the same virtual instant.
 */
void scheduleFailureBurst(ClusterRunner &runner, int k, double atSec,
                          int disk = 0);

} // namespace declust
