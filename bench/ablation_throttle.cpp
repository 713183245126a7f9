/**
 * @file
 * Ablation: reconstruction throttling (the paper's section-9 future-work
 * item, implemented here).
 *
 * Sweeps a per-cycle throttle delay on an eight-way parallel
 * reconstruction and reports the recovery-time / user-response-time
 * trade-off curve.
 */
#include <iostream>

#include "bench_common.hpp"

static int
run(int argc, char **argv)
{
    using namespace declust;
    using namespace declust::bench;

    Options opts("Ablation: reconstruction throttle trade-off");
    addCommonOptions(opts);
    opts.add("rate", "210", "user access rate");
    opts.add("g", "5", "parity stripe size");
    opts.add("delays", "0,10,25,50,100", "per-cycle delays (ms)");
    if (!opts.parse(argc, argv))
        return 1;
    if (!bench::applyDataPlaneOption(opts))
        return 1;

    const double warmup = opts.getDouble("warmup");

    TablePrinter table({"throttle ms", "recon time s",
                        "user resp during recon ms", "p90 ms"});

    std::vector<Trial> trials;
    for (long delayMs : opts.getIntList("delays")) {
        trials.push_back([&opts, warmup, delayMs] {
            SimConfig cfg;
            cfg.numDisks = 21;
            cfg.stripeUnits = static_cast<int>(opts.getInt("g"));
            cfg.geometry = geometryFrom(opts);
            cfg.accessesPerSec = opts.getDouble("rate");
            cfg.readFraction = 0.5;
            cfg.algorithm = ReconAlgorithm::Baseline;
            cfg.reconProcesses = 8;
            cfg.reconThrottle = msToTicks(static_cast<double>(delayMs));
            cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed"));

            ArraySimulation sim(cfg);
            sim.failAndRunDegraded(warmup, warmup);
            const ReconOutcome outcome = sim.reconstruct();

            TrialResult result;
            result.rows.push_back(
                {std::to_string(delayMs),
                 fmtDouble(outcome.report.reconstructionTimeSec, 1),
                 fmtDouble(outcome.userDuringRecon.meanMs, 1),
                 fmtDouble(outcome.userDuringRecon.p90Ms, 1)});
            noteSim(result, sim);
            return result;
        });
    }

    const SweepOutcome outcome =
        runTrials(opts, "ablation_throttle", table, trials);

    std::cout << "Throttle ablation (G=" << opts.getInt("g")
              << ", rate=" << opts.getInt("rate")
              << "/s, 8-way baseline reconstruction)\n";
    emit(opts, table);
    writeJsonRecord(opts, "ablation_throttle", outcome);
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
