/**
 * @file
 * Cluster topology: N independent declustered arrays, each with its own
 * private event core.
 *
 * This promotes PR 6's per-trial sharding (--shards) to a first-class
 * serving topology: instead of shards of ONE logical array run
 * back-to-back for statistics, the cluster holds MANY arrays serving
 * one front-end request stream concurrently. Every array is a complete
 * ArraySimulation — its own EventQueue, controller, disks, and
 * (optional) health monitor — seeded with shardSeed(seed, i, arrays) so
 * the per-array event streams are independent of how many worker
 * threads advance them.
 *
 * No state is shared between arrays outside the epoch barriers; the
 * ArrayCensus snapshot (census.hpp) is the only cross-array channel:
 * each array's is taken at the end of its advance and read by the
 * router only at the next barrier.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/census.hpp"
#include "core/array_sim.hpp"

namespace declust {

/** Everything needed to stand up one serving cluster. */
struct ClusterConfig
{
    /** Number of arrays (each a full ArraySimulation). */
    int arrays = 4;
    /**
     * Template for every array; the per-array seed is derived with
     * shardSeed(seed, i, arrays), overriding array.seed. The synthetic
     * workload it describes is never started — the router injects all
     * user traffic — so accessesPerSec is ignored in cluster mode.
     */
    SimConfig array;

    /** Object population the Zipf popularity law ranges over. */
    std::int64_t objects = 100000;
    /** Zipf skew exponent (0 = uniform popularity). */
    double zipfAlpha = 0.9;
    /** Cluster-wide open-loop arrival rate, requests per second. */
    double requestsPerSec = 400.0;
    /** Fraction of requests that are reads. */
    double readFraction = 0.7;
    /**
     * Request size classes: each object is permanently assigned a size
     * (in stripe units) by hashing its id against these weights.
     */
    std::vector<int> sizeClassUnits = {1, 4, 16};
    std::vector<double> sizeClassWeights = {0.70, 0.25, 0.05};

    /**
     * Barrier cadence, seconds of virtual time. Cross-array state
     * (census, routing) refreshes once per epoch; within an epoch every
     * array advances independently.
     */
    double epochSec = 0.25;
    /** Steer reads away from impaired primaries onto their replica. */
    bool avoidImpaired = true;

    /** Cluster master seed; every stream below it derives through
     * sim/seed.hpp (shardSeed per array, taggedSeed for the router). */
    std::uint64_t seed = 1;
};

/** N arrays with private event cores, plus barrier-time snapshots. */
class ClusterTopology
{
  public:
    /** Builds all arrays up front (ConfigError on bad config). */
    explicit ClusterTopology(const ClusterConfig &config);

    int arrays() const { return static_cast<int>(arrays_.size()); }
    ArraySimulation &array(int i) { return *arrays_[static_cast<std::size_t>(i)]; }
    const ArraySimulation &array(int i) const
    {
        return *arrays_[static_cast<std::size_t>(i)];
    }
    const ClusterConfig &config() const { return config_; }

    /** Data units addressable on every array (homogeneous cluster). */
    std::int64_t dataUnitsPerArray() const { return dataUnits_; }

    /**
     * Census of array @p i: repair state, gray-health verdicts, and
     * queue depth. Reads only array @p i, so the worker that just
     * advanced the array takes it at the end of its advance.
     */
    ArrayCensus snapshot(int i) const;

  private:
    ClusterConfig config_;
    std::vector<std::unique_ptr<ArraySimulation>> arrays_;
    std::int64_t dataUnits_ = 0;
};

} // namespace declust
