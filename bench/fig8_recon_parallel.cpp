/**
 * @file
 * Figures 8-3 and 8-4: eight-way parallel reconstruction time and user
 * response time during reconstruction — the same sweep as figures
 * 8-1/8-2 but with eight concurrent reconstruction processes.
 *
 * --stripes / --algorithms narrow the sweep; --shards splits every
 * point across independent array shards (see fig8_recon_single).
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

    Options opts(
        "Figures 8-3/8-4: eight-way parallel reconstruction vs alpha");
    addCommonOptions(opts);
    addShardOption(opts);
    opts.add("rates", "105,210", "user access rates to sweep");
    opts.add("processes", "8", "reconstruction processes");
    opts.add("stripes", "3,4,5,6,10,18,21", "stripe sizes G to sweep");
    opts.add("algorithms",
             "baseline,user-writes,redirect,redir+piggyback",
             "reconstruction algorithms to sweep");
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

    TablePrinter table({"alpha", "G", "rate/s", "algorithm",
                        "recon time s", "user resp ms", "p90 ms"});

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
                trial.merge = [G, rate, algorithm](
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
                    result.rows.push_back(
                        {fmtDouble(alpha, 2), std::to_string(G),
                         std::to_string(rate), toString(algorithm),
                         fmtDouble(merged.report.reconstructionTimeSec,
                                   1),
                         fmtDouble(merged.user.meanMs(), 1),
                         fmtDouble(merged.user.p90Ms(), 1)});
                    result.events = merged.events;
                    result.simSec = merged.simSec;
                    return result;
                };
                trials.push_back(std::move(trial));
            }
        }
    }

    const SweepOutcome outcome = runShardedTrials(
        opts, "fig8_recon_parallel", table, trials, shards);

    std::cout << "Figures 8-3 (reconstruction time) and 8-4 (user "
                 "response during reconstruction), "
              << opts.getInt("processes") << " processes\n";
    emit(opts, table);
    writeJsonRecord(opts, "fig8_recon_parallel", outcome);
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
