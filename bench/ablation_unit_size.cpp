/**
 * @file
 * Ablation: stripe unit size (a section-9 future-work item: "we intend
 * to explore disk arrays with different stripe unit sizes").
 *
 * Sweeps the stripe unit between 1 KB and 24 KB at a fixed 4 KB user
 * access size scaled to whole units, reporting fault-free response and
 * reconstruction behaviour for a declustered array. Larger units mean
 * fewer, larger reconstruction cycles (better sequential efficiency) but
 * coarser parity update granularity.
 */
#include <iostream>

#include "bench_common.hpp"

static int
run(int argc, char **argv)
{
    using namespace declust;
    using namespace declust::bench;

    Options opts("Ablation: stripe unit size");
    addCommonOptions(opts);
    opts.add("rate", "105", "user access rate");
    opts.add("g", "5", "parity stripe size");
    opts.add("unit-sectors", "2,4,8,16,48", "unit sizes in 512 B sectors");
    if (!opts.parse(argc, argv))
        return 1;
    if (!bench::applyDataPlaneOption(opts))
        return 1;

    const double warmup = opts.getDouble("warmup");
    const double measure = opts.getDouble("measure");

    TablePrinter table({"unit KB", "units/disk", "fault-free ms",
                        "recon time s", "user resp during recon ms"});

    std::vector<Trial> trials;
    for (long sectors : opts.getIntList("unit-sectors")) {
        trials.push_back([&opts, warmup, measure, sectors] {
            SimConfig cfg;
            cfg.numDisks = 21;
            cfg.stripeUnits = static_cast<int>(opts.getInt("g"));
            cfg.geometry = geometryFrom(opts);
            cfg.accessesPerSec = opts.getDouble("rate");
            cfg.readFraction = 0.5;
            cfg.unitSectors = static_cast<int>(sectors);
            cfg.algorithm = ReconAlgorithm::Baseline;
            cfg.reconProcesses = 8;
            cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed"));

            ArraySimulation sim(cfg);
            const PhaseStats healthy = sim.runFaultFree(warmup, measure);
            sim.failAndRunDegraded(warmup, warmup);
            const ReconOutcome outcome = sim.reconstruct();

            TrialResult result;
            result.rows.push_back(
                {fmtDouble(sectors * 0.5, 1),
                 std::to_string(sim.controller().unitsPerDisk()),
                 fmtDouble(healthy.meanMs, 1),
                 fmtDouble(outcome.report.reconstructionTimeSec, 1),
                 fmtDouble(outcome.userDuringRecon.meanMs, 1)});
            noteSim(result, sim);
            return result;
        });
    }

    const SweepOutcome outcome =
        runTrials(opts, "ablation_unit_size", table, trials);

    std::cout << "Stripe-unit-size ablation (G=" << opts.getInt("g")
              << ", rate=" << opts.getInt("rate") << "/s, 50% reads)\n";
    emit(opts, table);
    writeJsonRecord(opts, "ablation_unit_size", outcome);
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
