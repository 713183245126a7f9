/**
 * @file
 * Gray-failure robustness measurements: user response-time tails on an
 * array with one fail-slow disk, swept over hedged-read deadlines,
 * with optional online scrubbing.
 *
 * The scenario the hedging layer exists for: no disk has failed, but
 * one is degraded (slower transfers, intermittent stalls), so every
 * G-th read lands on it and drags the tail out. The sweep holds the
 * workload and the injected fault fixed and varies only --hedge-sweep,
 * so the p99/p999 columns isolate what deadline-driven reconstruct
 * races buy. Hedge accounting (launched / wins / wasted) shows what
 * they cost. Like the response times, every counter column covers the
 * measured window only (ArraySimulation::windowCounters), not warmup.
 *
 * Supports --shards / --jobs with the usual contract: output is a pure
 * function of (seed, shards), byte-identical at any worker count.
 */
#include <iostream>

#include "bench_common.hpp"
#include "core/scrubber.hpp"

namespace {

/** Raw statistics one shard of a sweep point produces. */
struct RobustShard
{
    declust::PhaseSample user;
    declust::WindowCounters window;
    std::uint64_t events = 0;
    double simSec = 0.0;
};

} // namespace

static int
run(int argc, char **argv)
{
    using namespace declust;
    using namespace declust::bench;

    Options opts("Gray-failure robustness: response-time tails on a "
                 "fail-slow disk vs the hedged-read deadline");
    addCommonOptions(opts);
    addShardOption(opts);
    addRobustnessOptions(opts);
    opts.add("rate", "105", "user accesses per second");
    opts.add("G", "6", "parity stripe size");
    opts.add("hedge-sweep", "0,30",
             "hedged-read deadlines (ms) to sweep; 0 = no hedging");
    if (!opts.parse(argc, argv))
        return 1;
    if (!bench::applyDataPlaneOption(opts))
        return 1;
    const int shards = shardsFrom(opts);
    if (!shards)
        return 1;

    SimConfig base;
    if (!applyRobustnessOptions(opts, &base))
        return 1;
    base.numDisks = 21;
    base.stripeUnits = static_cast<int>(opts.getInt("G"));
    base.accessesPerSec = opts.getDouble("rate");
    base.readFraction = 0.5;

    const double warmup = opts.getDouble("warmup");
    const double measure = opts.getDouble("measure");
    const auto baseSeed =
        static_cast<std::uint64_t>(opts.getInt("seed"));

    TablePrinter table({"hedge ms", "mean ms", "p90 ms", "p99 ms",
                        "p999 ms", "reads", "hedges", "wins", "wasted",
                        "scrubbed", "repairs"});

    std::vector<ShardedTrial<RobustShard>> trials;
    for (double hedgeMs : opts.getDoubleList("hedge-sweep")) {
        ShardedTrial<RobustShard> trial;
        trial.run = [&opts, base, warmup, measure, baseSeed, shards,
                     hedgeMs](int shard) {
            SimConfig cfg = base;
            cfg.hedgeAfterMs = hedgeMs;
            cfg.geometry =
                shardGeometry(geometryFrom(opts), shard, shards);
            cfg.seed = shardSeed(baseSeed, shard, shards);

            ArraySimulation sim(cfg);
            sim.runFaultFree(warmup,
                             shardSeconds(measure, shards));

            RobustShard result;
            result.user = sim.samplePhase(
                shardSeconds(measure, shards));
            result.window = sim.windowCounters();
            result.events = sim.eventQueue().executed();
            result.simSec = ticksToSec(sim.eventQueue().now());
            return result;
        };
        trial.merge = [hedgeMs](std::vector<RobustShard> &parts) {
            RobustShard &merged = parts[0];
            WindowCounters &w = merged.window;
            for (std::size_t s = 1; s < parts.size(); ++s) {
                const WindowCounters &part = parts[s].window;
                ShardMerge::into(merged.user, parts[s].user);
                w.hedges.launched += part.hedges.launched;
                w.hedges.wins += part.hedges.wins;
                w.hedges.wasted += part.hedges.wasted;
                w.scrub.unitsScrubbed += part.scrub.unitsScrubbed;
                w.sectorRepairs += part.sectorRepairs;
                merged.events += parts[s].events;
                merged.simSec += parts[s].simSec;
            }
            TrialResult result;
            result.rows.push_back(
                {fmtDouble(hedgeMs, 0),
                 fmtDouble(merged.user.meanMs(), 1),
                 fmtDouble(merged.user.p90Ms(), 1),
                 fmtDouble(merged.user.p99Ms(), 1),
                 fmtDouble(merged.user.p999Ms(), 1),
                 std::to_string(merged.user.reads),
                 std::to_string(w.hedges.launched),
                 std::to_string(w.hedges.wins),
                 std::to_string(w.hedges.wasted),
                 std::to_string(w.scrub.unitsScrubbed),
                 std::to_string(w.sectorRepairs)});
            result.events = merged.events;
            result.simSec = merged.simSec;
            return result;
        };
        trials.push_back(std::move(trial));
    }

    const SweepOutcome outcome = runShardedTrials(
        opts, "bench_robustness", table, trials, shards);

    std::cout << "Gray-failure robustness sweep: fail-slow spec '"
              << opts.getString("fail-slow") << "', scrub interval "
              << fmtDouble(opts.getDouble("scrub-interval"), 0)
              << " s, G=" << opts.getInt("G") << "\n";
    emit(opts, table);
    writeJsonRecord(opts, "bench_robustness", outcome);
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
