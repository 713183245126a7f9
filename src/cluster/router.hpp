/**
 * @file
 * Front-end request router: maps a Zipf-skewed object population onto
 * the cluster's arrays.
 *
 * Placement is consistent and stateless: every object id hashes (via
 * sim/seed.hpp::mixSeed with fixed salts) to a primary array, a
 * distinct replica array, a permanent size class, and a fixed extent
 * inside the array's data-unit address space. Requests arrive open-loop
 * (Poisson) at a cluster-wide rate; popularity follows Zipf(alpha) over
 * the object population (workload/zipf.hpp).
 *
 * Routing an epoch is two steps. draw() generates the whole epoch's
 * arrivals — times, objects, placements — from one RNG stream; it needs
 * no cluster state, so the runner draws the next epoch while the
 * arrays advance the current one. assign() then steers the drawn reads
 * away from impaired primaries using the census of the epoch just
 * finished, serially at the barrier. The router is only ever used by
 * one thread at a time and its RNG is consumed epoch by epoch in order,
 * so routing is a pure function of (seed, epoch) — which is what makes
 * cluster output byte-identical at any --cluster-workers count.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/census.hpp"
#include "cluster/topology.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "util/annotations.hpp"
#include "workload/zipf.hpp"

namespace declust {

/** One routed request, ready to schedule on an array's event core. */
struct Arrival
{
    Tick when = 0;
    /** First data unit of the object's extent on the target array. */
    std::int64_t firstUnit = 0;
    /** Extent length in stripe units (the object's size class). */
    int units = 1;
    bool isRead = true;
};

/** Epoch-batched Zipf router with impaired-primary read avoidance. */
class RequestRouter
{
  public:
    /**
     * @param config Cluster config (population, rates, size classes).
     * @param dataUnitsPerArray Address space of every (homogeneous)
     *        array; extents are placed inside it.
     */
    RequestRouter(const ClusterConfig &config,
                  std::int64_t dataUnitsPerArray);

    /**
     * Generate every arrival in [epochStart, epochEnd) into the
     * per-array buffers @p out (out[i] is appended to, not cleared),
     * charging routing counters in @p counters: draw() then assign().
     */
    DECLUST_HOT_PATH
    void route(Tick epochStart, Tick epochEnd,
               const std::vector<ArrayCensus> &census,
               std::vector<std::vector<Arrival>> &out,
               std::vector<ClusterCounters> &counters);

    /**
     * Draw every arrival in [epochStart, epochEnd) — time, object,
     * placement, read or write — and hold them for assign(). Epochs
     * must be drawn in order, each assigned before the next is drawn.
     */
    DECLUST_HOT_PATH
    void draw(Tick epochStart, Tick epochEnd);

    /**
     * Route the drawn epoch into @p out (appended to, not cleared),
     * charging routing counters in @p counters. @p census is the
     * previous epoch's snapshot; reads whose primary is impaired are
     * redirected to their replica when the replica is healthy and
     * avoidance is enabled.
     */
    DECLUST_HOT_PATH
    void assign(const std::vector<ArrayCensus> &census,
                std::vector<std::vector<Arrival>> &out,
                std::vector<ClusterCounters> &counters);

    /** Primary array for @p object (placement hash, test hook). */
    int primaryArray(std::int64_t object) const;
    /** Replica array for @p object: distinct from the primary whenever
     * the cluster has more than one array. */
    int replicaArray(std::int64_t object) const;
    /** Permanent size class (stripe units) of @p object. */
    int objectUnits(std::int64_t object) const;
    /** First data unit of @p object's extent on its arrays. */
    std::int64_t objectFirstUnit(std::int64_t object) const;

    const ZipfSampler &popularity() const { return zipf_; }

  private:
    /** Full placement of one object, hashed in a single pass. */
    struct Placement
    {
        int primary;
        int replica;
        int units;
        std::int64_t firstUnit;
    };

    /**
     * Derive the object's base hash once and salt it per field —
     * identical values to the public per-field accessors, but ~3x
     * fewer mixSeed chains, which matters because placement runs
     * serially at the barrier for every arrival in the epoch.
     */
    Placement place(std::int64_t object) const;

    /** One drawn arrival, waiting for assign() to pick its array. */
    struct Drawn
    {
        Tick when;
        Placement placement;
        bool isRead;
    };

    /** Copied, not referenced: callers may pass a temporary config. */
    ClusterConfig config_;
    std::int64_t dataUnits_;
    ZipfSampler zipf_;
    Rng rng_;
    /** Cumulative size-class weights, normalized to end at 1. */
    std::vector<double> sizeCdf_;
    /** Mean interarrival time, seconds. */
    double meanGapSec_;
    /** Next undelivered arrival tick (carried across epochs so the
     * Poisson process is continuous through barriers). */
    Tick nextArrival_ = 0;
    bool primed_ = false;
    /** The drawn, not yet assigned epoch. */
    std::vector<Drawn> drawn_;
};

} // namespace declust
