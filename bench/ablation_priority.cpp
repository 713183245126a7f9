/**
 * @file
 * Ablation: user-over-reconstruction priority scheduling versus throttle
 * (both section-9 future-work mechanisms, implemented here).
 *
 * Compares four policies on the same recovery experiment: no control,
 * strict user priority at every disk, a 50 ms per-cycle throttle, and
 * priority combined with the throttle. Priority protects user response
 * time without a fixed rate cost; the interesting question the table
 * answers is what each policy does to reconstruction time.
 */
#include <iostream>

#include "bench_common.hpp"

static int
run(int argc, char **argv)
{
    using namespace declust;
    using namespace declust::bench;

    Options opts("Ablation: priority scheduling vs throttling");
    addCommonOptions(opts);
    opts.add("rate", "210", "user access rate");
    opts.add("g", "5", "parity stripe size");
    if (!opts.parse(argc, argv))
        return 1;
    if (!bench::applyDataPlaneOption(opts))
        return 1;

    const double warmup = opts.getDouble("warmup");

    struct Policy
    {
        const char *name;
        bool priority;
        long throttleMs;
    };
    const std::vector<Policy> policies = {
        {"none", false, 0},
        {"priority", true, 0},
        {"throttle 50ms", false, 50},
        {"priority + throttle", true, 50},
    };

    TablePrinter table({"policy", "recon time s",
                        "user resp during recon ms", "p90 ms"});

    std::vector<Trial> trials;
    for (const Policy &policy : policies) {
        trials.push_back([&opts, warmup, policy] {
            SimConfig cfg;
            cfg.numDisks = 21;
            cfg.stripeUnits = static_cast<int>(opts.getInt("g"));
            cfg.geometry = geometryFrom(opts);
            cfg.accessesPerSec = opts.getDouble("rate");
            cfg.readFraction = 0.5;
            cfg.algorithm = ReconAlgorithm::Baseline;
            cfg.reconProcesses = 8;
            cfg.prioritizeUserIo = policy.priority;
            cfg.reconThrottle =
                msToTicks(static_cast<double>(policy.throttleMs));
            cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed"));

            ArraySimulation sim(cfg);
            sim.failAndRunDegraded(warmup, warmup);
            const ReconOutcome outcome = sim.reconstruct();

            TrialResult result;
            result.rows.push_back(
                {policy.name,
                 fmtDouble(outcome.report.reconstructionTimeSec, 1),
                 fmtDouble(outcome.userDuringRecon.meanMs, 1),
                 fmtDouble(outcome.userDuringRecon.p90Ms, 1)});
            noteSim(result, sim);
            return result;
        });
    }

    const SweepOutcome outcome =
        runTrials(opts, "ablation_priority", table, trials);

    std::cout << "Priority/throttle ablation (G=" << opts.getInt("g")
              << ", rate=" << opts.getInt("rate")
              << "/s, 8-way baseline reconstruction)\n";
    emit(opts, table);
    writeJsonRecord(opts, "ablation_priority", outcome);
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
