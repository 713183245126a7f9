/**
 * @file
 * Figures 8-1 and 8-2: single-threaded reconstruction time and average
 * user response time during reconstruction, for all four reconstruction
 * algorithms, under 50/50 read/write workloads at 105 and 210 user
 * accesses per second, across the alpha sweep. With --processes 8 the
 * same sweep is figures 8-3 and 8-4, eight-way parallel reconstruction;
 * above one process the title and the --json "bench" name are theirs.
 *
 * --stripes / --algorithms narrow the sweep (e.g. to one point for a
 * paper-scale speedup measurement); --shards splits every point across
 * independent array shards that each rebuild a slice of the geometry.
 */
#include <iostream>

#include "bench_common.hpp"

namespace {

/** Raw statistics one shard of a sweep point produces. */
struct ReconShard
{
    declust::ReconReport report;
    declust::PhaseSample user;
    std::uint64_t events = 0;
    double simSec = 0.0;
};

} // namespace

static int
run(int argc, char **argv)
{
    using namespace declust;
    using namespace declust::bench;

    Options opts("Figures 8-1/8-2 (8-3/8-4 with --processes 8): "
                 "reconstruction vs alpha");
    addCommonOptions(opts);
    addShardOption(opts);
    opts.add("rates", "105,210", "user access rates to sweep");
    opts.add("processes", "1", "reconstruction processes");
    opts.add("stripes", "3,4,5,6,10,18,21", "stripe sizes G to sweep");
    opts.add("algorithms",
             "baseline,user-writes,redirect,redir+piggyback",
             "reconstruction algorithms to sweep");
    opts.addFlag("tails",
                 "append p99/p999 response-time columns (off by "
                 "default so golden tables are unchanged)");
    if (!opts.parse(argc, argv))
        return 1;
    if (!bench::applyDataPlaneOption(opts))
        return 1;
    const int shards = shardsFrom(opts);
    if (!shards)
        return 1;
    std::vector<ReconAlgorithm> algorithms;
    if (!algorithmsFrom(opts, "algorithms", &algorithms))
        return 1;

    const double warmup = opts.getDouble("warmup");
    const auto baseSeed =
        static_cast<std::uint64_t>(opts.getInt("seed"));
    constexpr int kDisks = 21;

    const long processes = opts.getInt("processes");
    const bool parallel = processes > 1;
    const std::string benchName =
        parallel ? "fig8_recon_parallel" : "fig8_recon_single";
    const bool tails = opts.getFlag("tails");
    std::vector<std::string> header{"alpha", "G", "rate/s", "algorithm",
                                    "recon time s", "user resp ms",
                                    "p90 ms"};
    if (tails) {
        header.push_back("p99 ms");
        header.push_back("p999 ms");
    }
    TablePrinter table(header);

    std::vector<ShardedTrial<ReconShard>> trials;
    for (long G : opts.getIntList("stripes")) {
        for (long rate : opts.getIntList("rates")) {
            for (ReconAlgorithm algorithm : algorithms) {
                ShardedTrial<ReconShard> trial;
                trial.run = [&opts, warmup, baseSeed, shards, G, rate,
                             algorithm](int shard) {
                    SimConfig cfg;
                    cfg.numDisks = kDisks;
                    cfg.stripeUnits = static_cast<int>(G);
                    cfg.geometry = shardGeometry(geometryFrom(opts),
                                                 shard, shards);
                    cfg.accessesPerSec = static_cast<double>(rate);
                    cfg.readFraction = 0.5;
                    cfg.algorithm = algorithm;
                    cfg.reconProcesses =
                        static_cast<int>(opts.getInt("processes"));
                    cfg.seed = shardSeed(baseSeed, shard, shards);

                    ArraySimulation sim(cfg);
                    sim.failAndRunDegraded(warmup, warmup);
                    const ReconOutcome outcome = sim.reconstruct();

                    ReconShard result;
                    result.report = outcome.report;
                    result.user = sim.samplePhase(
                        outcome.report.reconstructionTimeSec);
                    result.events = sim.eventQueue().executed();
                    result.simSec = ticksToSec(sim.eventQueue().now());
                    return result;
                };
                trial.merge = [G, rate, algorithm, tails](
                                  std::vector<ReconShard> &parts) {
                    ReconShard &merged = parts[0];
                    for (std::size_t s = 1; s < parts.size(); ++s) {
                        merged.report.merge(parts[s].report);
                        ShardMerge::into(merged.user, parts[s].user);
                        merged.events += parts[s].events;
                        merged.simSec += parts[s].simSec;
                    }
                    const double alpha =
                        static_cast<double>(G - 1) / (kDisks - 1);
                    TrialResult result;
                    std::vector<std::string> row{
                        fmtDouble(alpha, 2), std::to_string(G),
                        std::to_string(rate), toString(algorithm),
                        fmtDouble(merged.report.reconstructionTimeSec,
                                  1),
                        fmtDouble(merged.user.meanMs(), 1),
                        fmtDouble(merged.user.p90Ms(), 1)};
                    if (tails) {
                        row.push_back(fmtDouble(merged.user.p99Ms(), 1));
                        row.push_back(
                            fmtDouble(merged.user.p999Ms(), 1));
                    }
                    result.rows.push_back(std::move(row));
                    result.events = merged.events;
                    result.simSec = merged.simSec;
                    return result;
                };
                trials.push_back(std::move(trial));
            }
        }
    }

    const SweepOutcome outcome =
        runShardedTrials(opts, benchName, table, trials, shards);

    if (parallel)
        std::cout << "Figures 8-3 (reconstruction time) and 8-4 (user "
                     "response during reconstruction), "
                  << processes << " processes\n";
    else
        std::cout << "Figures 8-1 (reconstruction time) and 8-2 (user "
                     "response during reconstruction), "
                  << processes << " process(es)\n";
    emit(opts, table);
    writeJsonRecord(opts, benchName, outcome);
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
