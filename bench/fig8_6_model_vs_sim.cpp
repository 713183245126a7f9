/**
 * @file
 * Figure 8-6: the Muntz & Lui analytic model versus simulation.
 *
 * For each alpha we report the simulated reconstruction time (baseline
 * and redirect algorithms, eight-way parallel by default: the model
 * assumes every spare access of every disk feeds the sweep, which only a
 * parallel reconstruction approaches) next to the analytic model's
 * prediction with mu = the disk's random-access rate (~46/s), using the
 * paper's user-to-disk-access conversions. The model should come out
 * significantly pessimistic — its fixed service rate cannot credit the
 * replacement disk's fast sequential writes — and should rank
 * user-writes worse than redirect, both hallmarks the paper discusses.
 *
 * --shards splits each point's simulations across geometry slices
 * (like fig8_recon_single); the model columns always use the full
 * geometry, since the analytic prediction is not simulated work.
 */
#include <iostream>

#include "bench_common.hpp"
#include "model/muntz_lui.hpp"

namespace {

/** Raw statistics one shard of a sweep point produces. */
struct ModelSimShard
{
    double baselineSec = 0.0;
    double redirectSec = 0.0;
    std::uint64_t events = 0;
    double simSec = 0.0;
};

} // namespace

static int
run(int argc, char **argv)
{
    using namespace declust;
    using namespace declust::bench;

    Options opts("Figure 8-6: Muntz & Lui model vs simulation");
    addCommonOptions(opts);
    addShardOption(opts);
    opts.add("rate", "210", "user access rate");
    opts.add("processes", "8",
             "reconstruction processes (the model assumes all spare\n"
             "      bandwidth is used, i.e. maximally parallel sweep)");
    if (!opts.parse(argc, argv))
        return 1;
    if (!bench::applyDataPlaneOption(opts))
        return 1;
    const int shards = shardsFrom(opts);
    if (!shards)
        return 1;

    const double warmup = opts.getDouble("warmup");
    const double rate = opts.getDouble("rate");
    const auto baseSeed =
        static_cast<std::uint64_t>(opts.getInt("seed"));
    const DiskGeometry geometry = geometryFrom(opts);
    const double mu = maxRandomAccessRate(geometry);
    constexpr int kDisks = 21;

    TablePrinter table({"alpha", "G", "sim baseline s", "sim redirect s",
                        "model baseline s", "model user-writes s",
                        "model redirect s"});

    std::vector<ShardedTrial<ModelSimShard>> trials;
    for (int G : paperStripeSizes()) {
        ShardedTrial<ModelSimShard> trial;
        trial.run = [&opts, warmup, rate, baseSeed, shards, geometry,
                     G](int shard) {
            SimConfig cfg;
            cfg.numDisks = kDisks;
            cfg.stripeUnits = G;
            cfg.geometry = shardGeometry(geometry, shard, shards);
            cfg.accessesPerSec = rate;
            cfg.readFraction = 0.5;
            cfg.reconProcesses =
                static_cast<int>(opts.getInt("processes"));
            cfg.seed = shardSeed(baseSeed, shard, shards);

            ModelSimShard result;
            auto simulate = [&](ReconAlgorithm algorithm) {
                SimConfig c = cfg;
                c.algorithm = algorithm;
                ArraySimulation sim(c);
                sim.failAndRunDegraded(warmup, warmup);
                const double sec =
                    sim.reconstruct().report.reconstructionTimeSec;
                result.events += sim.eventQueue().executed();
                result.simSec += ticksToSec(sim.eventQueue().now());
                return sec;
            };
            result.baselineSec = simulate(ReconAlgorithm::Baseline);
            result.redirectSec = simulate(ReconAlgorithm::Redirect);
            return result;
        };
        trial.merge = [rate, geometry, mu,
                       G](std::vector<ModelSimShard> &parts) {
            ModelSimShard &merged = parts[0];
            for (std::size_t s = 1; s < parts.size(); ++s) {
                merged.baselineSec += parts[s].baselineSec;
                merged.redirectSec += parts[s].redirectSec;
                merged.events += parts[s].events;
                merged.simSec += parts[s].simSec;
            }

            auto model = [&](ReconAlgorithm algorithm) {
                MlModelConfig mc;
                mc.numDisks = kDisks;
                mc.stripeUnits = G;
                mc.unitsPerDisk = geometry.totalSectors() / 8;
                mc.userAccessesPerSec = rate;
                mc.readFraction = 0.5;
                mc.maxDiskAccessRate = mu;
                mc.algorithm = algorithm;
                const auto res = muntzLuiReconstructionTime(mc);
                return res.saturated ? -1.0 : res.reconstructionTimeSec;
            };

            const double alpha =
                static_cast<double>(G - 1) / (kDisks - 1);
            TrialResult result;
            result.rows.push_back(
                {fmtDouble(alpha, 2), std::to_string(G),
                 fmtDouble(merged.baselineSec, 1),
                 fmtDouble(merged.redirectSec, 1),
                 fmtDouble(model(ReconAlgorithm::Baseline), 1),
                 fmtDouble(model(ReconAlgorithm::UserWrites), 1),
                 fmtDouble(model(ReconAlgorithm::Redirect), 1)});
            result.events = merged.events;
            result.simSec = merged.simSec;
            return result;
        };
        trials.push_back(std::move(trial));
    }

    const SweepOutcome outcome = runShardedTrials(
        opts, "fig8_6_model_vs_sim", table, trials, shards);

    std::cout << "Figure 8-6: analytic model (mu = " << fmtDouble(mu, 1)
              << "/s) vs simulation, rate = " << rate
              << "/s, 50% reads (-1 = model saturated)\n";
    emit(opts, table);
    writeJsonRecord(opts, "fig8_6_model_vs_sim", outcome);
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
