/**
 * @file
 * Ablation: controller CPU and XOR-engine overhead.
 *
 * The paper's simulator (and ours, by default) treats the array
 * controller as free; section 9 flags "the impact of CPU overhead and
 * architectural bottlenecks in the reconstructing system" (citing
 * Chervenak & Katz's RAID prototype measurements) as unexplored. This
 * bench sweeps a per-access controller cost and a per-unit XOR cost and
 * reports how much of the declustering win survives a slow controller.
 */
#include <iostream>

#include "bench_common.hpp"

static int
run(int argc, char **argv)
{
    using namespace declust;
    using namespace declust::bench;

    Options opts("Ablation: controller CPU / XOR overhead");
    addCommonOptions(opts);
    opts.add("rate", "105", "user access rate");
    opts.add("g", "5", "parity stripe size");
    opts.add("cpu-ms", "0,0.2,0.5,1.0,1.5,2.0",
             "controller ms per disk access");
    opts.add("xor-ms", "0.05", "XOR ms per stripe unit combined");
    if (!opts.parse(argc, argv))
        return 1;
    if (!bench::applyDataPlaneOption(opts))
        return 1;

    const double warmup = opts.getDouble("warmup");
    const double measure = opts.getDouble("measure");

    TablePrinter table({"cpu ms/access", "xor ms/unit", "fault-free ms",
                        "recon time s", "user resp during recon ms",
                        "cpu util"});

    std::vector<Trial> trials;
    for (double cpuMs : opts.getDoubleList("cpu-ms")) {
        trials.push_back([&opts, warmup, measure, cpuMs] {
            SimConfig cfg;
            cfg.numDisks = 21;
            cfg.stripeUnits = static_cast<int>(opts.getInt("g"));
            cfg.geometry = geometryFrom(opts);
            cfg.accessesPerSec = opts.getDouble("rate");
            cfg.readFraction = 0.5;
            cfg.algorithm = ReconAlgorithm::Baseline;
            cfg.reconProcesses = 8;
            cfg.controllerOverheadMs = cpuMs;
            cfg.xorOverheadMsPerUnit =
                cpuMs > 0 ? opts.getDouble("xor-ms") : 0.0;
            cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed"));

            ArraySimulation sim(cfg);
            const PhaseStats healthy = sim.runFaultFree(warmup, measure);
            sim.failAndRunDegraded(warmup, warmup);
            const ReconOutcome outcome = sim.reconstruct();

            TrialResult result;
            result.rows.push_back(
                {fmtDouble(cpuMs, 2),
                 fmtDouble(cfg.xorOverheadMsPerUnit, 2),
                 fmtDouble(healthy.meanMs, 1),
                 fmtDouble(outcome.report.reconstructionTimeSec, 1),
                 fmtDouble(outcome.userDuringRecon.meanMs, 1),
                 fmtDouble(sim.controller().cpuUtilization(), 2)});
            noteSim(result, sim);
            return result;
        });
    }

    const SweepOutcome outcome =
        runTrials(opts, "ablation_cpu_overhead", table, trials);

    std::cout << "CPU/XOR-overhead ablation (G=" << opts.getInt("g")
              << ", rate=" << opts.getInt("rate")
              << "/s, 8-way baseline reconstruction)\n";
    emit(opts, table);
    writeJsonRecord(opts, "ablation_cpu_overhead", outcome);
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
