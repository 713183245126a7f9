/**
 * @file
 * Table 8-1: reconstruction cycle times — read phase + write phase =
 * cycle, averaged over the last 300 stripe units of the reconstruction,
 * at 210 user accesses/sec (50/50 read/write), for alpha in
 * {0.15, 0.45, 1.0}, all four algorithms, single-thread and eight-way
 * parallel. Standard deviations in parentheses, as in the paper.
 *
 * --shards splits each point across geometry slices; the tail window
 * then covers the union of every shard's last-300-cycle window.
 */
#include <iostream>

#include "bench_common.hpp"

namespace {

std::string
phaseCell(const declust::Accumulator &acc)
{
    return declust::fmtDouble(acc.mean(), 0) + "(" +
           declust::fmtDouble(acc.stddev(), 1) + ")";
}

/** Raw statistics one shard of a sweep point produces. */
struct CycleShard
{
    declust::ReconReport report;
    std::uint64_t events = 0;
    double simSec = 0.0;
};

} // namespace

static int
run(int argc, char **argv)
{
    using namespace declust;
    using namespace declust::bench;

    Options opts("Table 8-1: reconstruction cycle phase times");
    addCommonOptions(opts);
    addShardOption(opts);
    opts.add("rate", "210", "user access rate");
    if (!opts.parse(argc, argv))
        return 1;
    if (!bench::applyDataPlaneOption(opts))
        return 1;
    const int shards = shardsFrom(opts);
    if (!shards)
        return 1;

    const double warmup = opts.getDouble("warmup");
    const auto baseSeed =
        static_cast<std::uint64_t>(opts.getInt("seed"));
    const std::vector<ReconAlgorithm> algorithms = {
        ReconAlgorithm::Baseline, ReconAlgorithm::UserWrites,
        ReconAlgorithm::Redirect, ReconAlgorithm::RedirectPiggyback};
    const std::vector<int> stripeSizes = {4, 10, 21}; // alpha .15/.45/1.0
    constexpr int kDisks = 21;

    // One sweep (and one table) per process count; the JSON record
    // aggregates both.
    SweepOutcome combined;
    for (int processes : {1, 8}) {
        TablePrinter table({"algorithm", "alpha", "read ms(sd)",
                            "write ms(sd)", "cycle ms"});
        std::vector<ShardedTrial<CycleShard>> trials;
        for (ReconAlgorithm algorithm : algorithms) {
            for (int G : stripeSizes) {
                ShardedTrial<CycleShard> trial;
                trial.run = [&opts, warmup, baseSeed, shards, algorithm,
                             G, processes](int shard) {
                    SimConfig cfg;
                    cfg.numDisks = kDisks;
                    cfg.stripeUnits = G;
                    cfg.geometry = shardGeometry(geometryFrom(opts),
                                                 shard, shards);
                    cfg.accessesPerSec = opts.getDouble("rate");
                    cfg.readFraction = 0.5;
                    cfg.algorithm = algorithm;
                    cfg.reconProcesses = processes;
                    cfg.seed = shardSeed(baseSeed, shard, shards);

                    ArraySimulation sim(cfg);
                    sim.failAndRunDegraded(warmup, warmup);

                    CycleShard result;
                    result.report = sim.reconstruct().report;
                    result.events = sim.eventQueue().executed();
                    result.simSec = ticksToSec(sim.eventQueue().now());
                    return result;
                };
                trial.merge = [algorithm,
                               G](std::vector<CycleShard> &parts) {
                    CycleShard &merged = parts[0];
                    for (std::size_t s = 1; s < parts.size(); ++s) {
                        merged.report.merge(parts[s].report);
                        merged.events += parts[s].events;
                        merged.simSec += parts[s].simSec;
                    }
                    const ReconReport &rep = merged.report;
                    const double alpha =
                        static_cast<double>(G - 1) / (kDisks - 1);
                    TrialResult result;
                    result.rows.push_back(
                        {toString(algorithm), fmtDouble(alpha, 2),
                         phaseCell(rep.tailReadPhaseMs),
                         phaseCell(rep.tailWritePhaseMs),
                         fmtDouble(rep.tailReadPhaseMs.mean() +
                                       rep.tailWritePhaseMs.mean(),
                                   0)});
                    result.events = merged.events;
                    result.simSec = merged.simSec;
                    return result;
                };
                trials.push_back(std::move(trial));
            }
        }

        const SweepOutcome outcome =
            runShardedTrials(opts,
                             "table8_1_cycle_times/" +
                                 std::to_string(processes) + "way",
                             table, trials, shards);
        combined.trials += outcome.trials;
        combined.jobs = outcome.jobs;
        combined.shards = outcome.shards;
        combined.wallSec += outcome.wallSec;
        combined.events += outcome.events;
        combined.simSec += outcome.simSec;
        if (combined.shardWallSec.empty())
            combined.shardWallSec = outcome.shardWallSec;
        else
            for (std::size_t s = 0; s < outcome.shardWallSec.size();
                 ++s)
                combined.shardWallSec[s] += outcome.shardWallSec[s];

        std::cout << "\nTable 8-1 (" << processes
                  << "-way reconstruction), rate = "
                  << opts.getInt("rate")
                  << "/s, last-300-unit window:\n";
        emit(opts, table);
    }
    writeJsonRecord(opts, "table8_1_cycle_times", combined);
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
