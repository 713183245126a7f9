/**
 * @file
 * Figures 6-1 and 6-2: average user response time vs. declustering
 * ratio, fault-free and degraded, for 100% reads (rates 105/210/378) and
 * 100% writes (rates 105/210; 378 writes/sec exceeds the array's
 * capacity, as the paper notes).
 *
 * One row per (G, mode, rate): fault-free mean response time and
 * degraded-mode mean response time in milliseconds.
 *
 * --shards splits every point's *measured horizon*: each shard runs
 * the full-geometry array (slicing capacity would change the seek
 * profile this figure measures) for measure/S seconds under its own
 * sub-seed, and the samples merge as one longer measurement.
 */
#include <iostream>

#include "bench_common.hpp"

namespace {

/** Raw statistics one shard of a sweep point produces. */
struct Fig6Shard
{
    declust::PhaseSample healthy;
    declust::PhaseSample degraded;
    std::uint64_t events = 0;
    double simSec = 0.0;
};

} // namespace

static int
run(int argc, char **argv)
{
    using namespace declust;
    using namespace declust::bench;

    Options opts("Figures 6-1/6-2: fault-free and degraded response time");
    addCommonOptions(opts);
    addShardOption(opts);
    if (!opts.parse(argc, argv))
        return 1;
    if (!bench::applyDataPlaneOption(opts))
        return 1;
    const int shards = shardsFrom(opts);
    if (!shards)
        return 1;

    const double warmup = opts.getDouble("warmup");
    const double measure = opts.getDouble("measure");
    const auto baseSeed =
        static_cast<std::uint64_t>(opts.getInt("seed"));
    constexpr int kDisks = 21;

    TablePrinter table({"alpha", "G", "mode", "rate/s", "fault-free ms",
                        "degraded ms", "ff util", "deg util"});

    struct Mode
    {
        const char *name;
        double readFraction;
        std::vector<long> rates;
    };
    const std::vector<Mode> modes = {
        {"read", 1.0, {105, 210, 378}},
        {"write", 0.0, {105, 210}},
    };

    std::vector<ShardedTrial<Fig6Shard>> trials;
    for (int G : paperStripeSizes()) {
        for (const Mode &mode : modes) {
            for (long rate : mode.rates) {
                const char *modeName = mode.name;
                const double readFraction = mode.readFraction;
                ShardedTrial<Fig6Shard> trial;
                trial.run = [&opts, warmup, measure, baseSeed, shards,
                             G, readFraction, rate](int shard) {
                    const double slice = shardSeconds(measure, shards);
                    SimConfig cfg;
                    cfg.numDisks = kDisks;
                    cfg.stripeUnits = G;
                    cfg.geometry = geometryFrom(opts);
                    cfg.accessesPerSec = static_cast<double>(rate);
                    cfg.readFraction = readFraction;
                    cfg.seed = shardSeed(baseSeed, shard, shards);

                    ArraySimulation sim(cfg);
                    Fig6Shard result;
                    sim.runFaultFree(warmup, slice);
                    result.healthy = sim.samplePhase(slice);
                    sim.failAndRunDegraded(warmup, slice);
                    result.degraded = sim.samplePhase(slice);
                    result.events = sim.eventQueue().executed();
                    result.simSec = ticksToSec(sim.eventQueue().now());
                    return result;
                };
                trial.merge = [G, modeName, readFraction,
                               rate](std::vector<Fig6Shard> &parts) {
                    Fig6Shard &merged = parts[0];
                    for (std::size_t s = 1; s < parts.size(); ++s) {
                        ShardMerge::into(merged.healthy,
                                         parts[s].healthy);
                        ShardMerge::into(merged.degraded,
                                         parts[s].degraded);
                        merged.events += parts[s].events;
                        merged.simSec += parts[s].simSec;
                    }
                    const double alpha =
                        static_cast<double>(G - 1) / (kDisks - 1);
                    TrialResult result;
                    result.rows.push_back(
                        {fmtDouble(alpha, 2), std::to_string(G),
                         modeName, std::to_string(rate),
                         fmtDouble(readFraction == 1.0
                                       ? merged.healthy.meanReadMs()
                                       : merged.healthy.meanWriteMs(),
                                   2),
                         fmtDouble(readFraction == 1.0
                                       ? merged.degraded.meanReadMs()
                                       : merged.degraded.meanWriteMs(),
                                   2),
                         fmtDouble(
                             merged.healthy.meanDiskUtilization(), 3),
                         fmtDouble(
                             merged.degraded.meanDiskUtilization(),
                             3)});
                    result.events = merged.events;
                    result.simSec = merged.simSec;
                    return result;
                };
                trials.push_back(std::move(trial));
            }
        }
    }

    const SweepOutcome outcome = runShardedTrials(
        opts, "fig6_response_time", table, trials, shards);

    std::cout << "Figures 6-1 (reads) and 6-2 (writes): response time vs "
                 "alpha, fault-free and degraded\n";
    emit(opts, table);
    writeJsonRecord(opts, "fig6_response_time", outcome);
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
