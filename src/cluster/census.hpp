/**
 * @file
 * Cross-array state shared through the cluster's epoch barriers.
 *
 * The cluster layer advances every array's private event core in
 * lock-step epochs; the ONLY state that crosses an array boundary is
 * collected here, and read across arrays only at a barrier. Two kinds:
 *
 *   ArrayCensus     a point-in-time snapshot of one array taken at the
 *                   end of its epoch (degraded? rebuilding? queue
 *                   depth?). The router reads the previous epoch's
 *                   census when routing the next epoch, so routing
 *                   decisions are a pure function of (seed, epoch) —
 *                   never of worker interleaving.
 *   ClusterCounters per-array counters accumulated over the whole run
 *                   and folded across arrays in index order at the end
 *                   (the same determinism contract as
 *                   stats/shard_merge.hpp). merge() is associative and
 *                   order-fixed: additive fields add, extrema take max.
 */
#pragma once

#include <cstdint>

namespace declust {

/** Snapshot of one array at an epoch barrier. */
struct ArrayCensus
{
    /** A disk has failed and its units are not all rebuilt yet. */
    bool degraded = false;
    /** A reconstruction sweep is actively running. */
    bool rebuilding = false;
    /** The health monitor holds a Suspect-or-worse verdict on some
     * disk (false when no monitor is attached). */
    bool slow = false;
    /** User operations submitted to the array but not yet complete. */
    std::int64_t queueDepth = 0;
    /** Failed-disk units rebuilt so far (0 while healthy). */
    std::int64_t rebuiltUnits = 0;
    /** Mapped units the current rebuild must cover (0 while healthy). */
    std::int64_t unitsToRebuild = 0;

    /** True when the router's avoidance policy should steer reads
     * elsewhere: the array is repairing or flagged gray. */
    bool
    impaired() const
    {
        return degraded || rebuilding || slow;
    }
};

/**
 * Mergeable per-array counters for one cluster run. Each array's event
 * core owns its own instance (no sharing inside an epoch); the final
 * fold walks arrays in index order.
 */
struct ClusterCounters
{
    /** Requests the router directed at this array. */
    std::uint64_t routed = 0;
    /** Reads steered here away from an impaired primary. */
    std::uint64_t redirectsIn = 0;
    /** Reads steered away from this array while it was impaired. */
    std::uint64_t redirectsOut = 0;
    /** User reads / writes completed during the measured window. */
    std::uint64_t completedReads = 0;
    std::uint64_t completedWrites = 0;
    /** Barrier snapshots that found the array degraded / rebuilding. */
    std::uint64_t degradedEpochs = 0;
    std::uint64_t rebuildingEpochs = 0;
    /** Largest barrier queue depth observed. */
    std::int64_t maxQueueDepth = 0;
    /** Units rebuilt by completed or in-progress reconstructions. */
    std::uint64_t rebuiltUnits = 0;
    /** Rebuilds that ran to completion inside the run. */
    std::uint64_t rebuildsCompleted = 0;

    /** Fold @p other in (associative; fold in array-index order). */
    void
    merge(const ClusterCounters &other)
    {
        routed += other.routed;
        redirectsIn += other.redirectsIn;
        redirectsOut += other.redirectsOut;
        completedReads += other.completedReads;
        completedWrites += other.completedWrites;
        degradedEpochs += other.degradedEpochs;
        rebuildingEpochs += other.rebuildingEpochs;
        if (other.maxQueueDepth > maxQueueDepth)
            maxQueueDepth = other.maxQueueDepth;
        rebuiltUnits += other.rebuiltUnits;
        rebuildsCompleted += other.rebuildsCompleted;
    }
};

} // namespace declust
