/**
 * @file
 * Ablation: disk head scheduler choice.
 *
 * The paper fixes CVSCAN (table 5-1); this ablation quantifies how much
 * that choice matters by re-running a representative recovery experiment
 * (G = 5, 210 accesses/sec, 50/50, eight-way baseline reconstruction)
 * under FCFS, SSTF, SCAN, and CVSCAN.
 */
#include <iostream>

#include "bench_common.hpp"

static int
run(int argc, char **argv)
{
    using namespace declust;
    using namespace declust::bench;

    Options opts("Ablation: head scheduler vs recovery performance");
    addCommonOptions(opts);
    opts.add("rate", "210", "user access rate");
    opts.add("g", "5", "parity stripe size");
    if (!opts.parse(argc, argv))
        return 1;
    if (!bench::applyDataPlaneOption(opts))
        return 1;

    const double warmup = opts.getDouble("warmup");
    const double measure = opts.getDouble("measure");

    TablePrinter table({"scheduler", "fault-free ms", "degraded ms",
                        "recon time s", "user resp during recon ms"});

    std::vector<Trial> trials;
    for (const char *sched : {"fcfs", "sstf", "scan", "cvscan"}) {
        trials.push_back([&opts, warmup, measure, sched] {
            SimConfig cfg;
            cfg.numDisks = 21;
            cfg.stripeUnits = static_cast<int>(opts.getInt("g"));
            cfg.geometry = geometryFrom(opts);
            cfg.scheduler = sched;
            cfg.accessesPerSec = opts.getDouble("rate");
            cfg.readFraction = 0.5;
            cfg.algorithm = ReconAlgorithm::Baseline;
            cfg.reconProcesses = 8;
            cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed"));

            ArraySimulation sim(cfg);
            const PhaseStats healthy = sim.runFaultFree(warmup, measure);
            const PhaseStats degraded =
                sim.failAndRunDegraded(warmup, measure);
            const ReconOutcome outcome = sim.reconstruct();

            TrialResult result;
            result.rows.push_back(
                {sched, fmtDouble(healthy.meanMs, 1),
                 fmtDouble(degraded.meanMs, 1),
                 fmtDouble(outcome.report.reconstructionTimeSec, 1),
                 fmtDouble(outcome.userDuringRecon.meanMs, 1)});
            noteSim(result, sim);
            return result;
        });
    }

    const SweepOutcome outcome =
        runTrials(opts, "ablation_scheduler", table, trials);

    std::cout << "Scheduler ablation (G=" << opts.getInt("g")
              << ", rate=" << opts.getInt("rate") << "/s, 50% reads, "
              << "8-way baseline reconstruction)\n";
    emit(opts, table);
    writeJsonRecord(opts, "ablation_scheduler", outcome);
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
