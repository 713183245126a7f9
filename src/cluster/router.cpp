#include "cluster/router.hpp"

#include <cstddef>

#include "cluster/census.hpp"
#include "cluster/topology.hpp"
#include "sim/seed.hpp"
#include "sim/time.hpp"
#include "util/annotations.hpp"
#include "util/error.hpp"

namespace declust {

namespace {

/** Salts separating the router's placement hash streams. */
constexpr std::uint64_t kRouterRngSalt = 0xc1057e4007e5ull;
constexpr std::uint64_t kPrimarySalt = 0x9817a4;
constexpr std::uint64_t kReplicaSalt = 0x4e971c4;
constexpr std::uint64_t kSizeSalt = 0x517ec1a55;
constexpr std::uint64_t kOffsetSalt = 0x0ff5e7;

/** 53-bit hash-to-[0,1) conversion (same mapping Rng::uniform uses). */
double
hashUnit(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace

RequestRouter::RequestRouter(const ClusterConfig &config,
                             std::int64_t dataUnitsPerArray)
    : config_(config),
      dataUnits_(dataUnitsPerArray),
      zipf_(config.objects, config.zipfAlpha),
      rng_(taggedSeed(config.seed, kRouterRngSalt)),
      meanGapSec_(1.0 / config.requestsPerSec)
{
    double total = 0.0;
    for (const double w : config_.sizeClassWeights)
        total += w;
    DECLUST_ASSERT(total > 0, "size-class weights sum to zero");
    sizeCdf_.reserve(config_.sizeClassWeights.size());
    double run = 0.0;
    for (const double w : config_.sizeClassWeights) {
        run += w / total;
        sizeCdf_.push_back(run);
    }
    sizeCdf_.back() = 1.0;
    for (const int units : config_.sizeClassUnits)
        DECLUST_ASSERT(units <= dataUnits_, "size class of ", units,
                       " units exceeds the array's ", dataUnits_,
                       " data units");
    nextArrival_ = secToTicks(rng_.exponential(meanGapSec_));
}

RequestRouter::Placement
RequestRouter::place(std::int64_t object) const
{
    const std::uint64_t base =
        mixSeed(config_.seed, static_cast<std::uint64_t>(object));
    Placement p;
    p.primary = static_cast<int>(
        mixSeed(base, kPrimarySalt) %
        static_cast<std::uint64_t>(config_.arrays));
    if (config_.arrays == 1) {
        p.replica = 0;
    } else {
        // Uniform over the arrays other than the primary.
        const int shift =
            1 + static_cast<int>(mixSeed(base, kReplicaSalt) %
                                 static_cast<std::uint64_t>(
                                     config_.arrays - 1));
        p.replica = (p.primary + shift) % config_.arrays;
    }
    const double u = hashUnit(mixSeed(base, kSizeSalt));
    p.units = config_.sizeClassUnits.back();
    for (std::size_t k = 0; k < sizeCdf_.size(); ++k) {
        if (u < sizeCdf_[k]) {
            p.units = config_.sizeClassUnits[k];
            break;
        }
    }
    const std::int64_t room = dataUnits_ - p.units + 1;
    p.firstUnit = static_cast<std::int64_t>(
        mixSeed(base, kOffsetSalt) %
        static_cast<std::uint64_t>(room));
    return p;
}

int
RequestRouter::primaryArray(std::int64_t object) const
{
    return place(object).primary;
}

int
RequestRouter::replicaArray(std::int64_t object) const
{
    return place(object).replica;
}

int
RequestRouter::objectUnits(std::int64_t object) const
{
    return place(object).units;
}

std::int64_t
RequestRouter::objectFirstUnit(std::int64_t object) const
{
    return place(object).firstUnit;
}

void
RequestRouter::route(Tick epochStart, Tick epochEnd,
                     const std::vector<ArrayCensus> &census,
                     std::vector<std::vector<Arrival>> &out,
                     std::vector<ClusterCounters> &counters)
{
    DECLUST_ASSERT(epochStart == drawnTo_, "route() epochs must follow "
                                           "each other from tick 0");
    drawUntil(epochEnd);
    assignUntil(epochEnd, census, out, counters);
}

void
RequestRouter::drawUntil(Tick horizon)
{
    // Drop the assigned prefix once it is at least as long as the rest:
    // each arrival then moves at most once on average, and the queue
    // never holds more than twice the arrivals still unassigned.
    if (drawnHead_ > 0 && drawnHead_ >= drawn_.size() - drawnHead_) {
        const auto assigned = static_cast<std::ptrdiff_t>(drawnHead_);
        drawn_.erase(drawn_.begin(), drawn_.begin() + assigned);
        drawnHead_ = 0;
    }
    while (nextArrival_ < horizon) {
        const std::int64_t object = zipf_.sample(rng_);
        const bool isRead = rng_.bernoulli(config_.readFraction);
        DECLUST_ANALYZE_SUPPRESS(
            "hot-path-growth: drawn_ is pre-sized by ClusterRunner::run "
            "to more than the two windows of arrivals it can hold; it "
            "only grows past that on a burst, and then keeps the "
            "capacity");
        drawn_.push_back({nextArrival_, place(object), isRead});
        nextArrival_ += secToTicks(rng_.exponential(meanGapSec_));
    }
    if (horizon > drawnTo_)
        drawnTo_ = horizon;
}

void
RequestRouter::assignUntil(Tick horizon,
                           const std::vector<ArrayCensus> &census,
                           std::vector<std::vector<Arrival>> &out,
                           std::vector<ClusterCounters> &counters)
{
    DECLUST_ASSERT(horizon <= drawnTo_, "assignUntil() past the drawn "
                                        "horizon");
    for (; drawnHead_ < drawn_.size() && drawn_[drawnHead_].when < horizon;
         ++drawnHead_) {
        const Drawn &d = drawn_[drawnHead_];
        const Placement &p = d.placement;
        int target = p.primary;
        // Slow-array avoidance: reads steer to the replica while the
        // primary repairs or is flagged gray. Writes stay put — the
        // primary copy is authoritative.
        if (config_.avoidImpaired && d.isRead && p.replica != p.primary &&
            census[static_cast<std::size_t>(p.primary)].impaired() &&
            !census[static_cast<std::size_t>(p.replica)].impaired()) {
            target = p.replica;
            counters[static_cast<std::size_t>(p.replica)].redirectsIn++;
            counters[static_cast<std::size_t>(p.primary)].redirectsOut++;
        }
        counters[static_cast<std::size_t>(target)].routed++;

        Arrival a;
        a.when = d.when;
        a.firstUnit = p.firstUnit;
        a.units = p.units;
        a.isRead = d.isRead;
        DECLUST_ANALYZE_SUPPRESS(
            "hot-path-growth: buffers are pre-sized by "
            "ClusterRunner::run to a full window's arrivals; "
            "steady-state pushes never reallocate");
        out[static_cast<std::size_t>(target)].push_back(a);
    }
}

} // namespace declust
