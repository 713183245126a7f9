/**
 * @file
 * Ablation: declustered mirroring vs declustered parity vs RAID 5.
 *
 * The paper's introduction frames parity declustering against the two
 * incumbent organizations: mirroring (fast but 50% capacity overhead;
 * Copeland & Keller's interleaved declustering spreads the copies) and
 * RAID 5 (cheap but slow to recover). G = 2 in this library *is*
 * interleaved-declustered mirroring — the "parity" unit of a two-unit
 * stripe is a copy — so all three points sit on one axis. This bench
 * reports capacity overhead, fault-free performance, and recovery
 * behaviour for each.
 */
#include <iostream>

#include "bench_common.hpp"

static int
run(int argc, char **argv)
{
    using namespace declust;
    using namespace declust::bench;

    Options opts("Ablation: mirroring vs parity declustering vs RAID 5");
    addCommonOptions(opts);
    opts.add("rate", "105", "user access rate");
    if (!opts.parse(argc, argv))
        return 1;
    if (!bench::applyDataPlaneOption(opts))
        return 1;

    const double warmup = opts.getDouble("warmup");
    const double measure = opts.getDouble("measure");

    TablePrinter table({"organization", "overhead %", "ff read ms",
                        "ff write ms", "degraded ms", "recon time s",
                        "user resp during recon ms"});

    struct Org
    {
        const char *name;
        int G;
    };
    std::vector<Trial> trials;
    for (const Org &org : {Org{"mirroring (G=2)", 2},
                           Org{"declustered (G=5)", 5},
                           Org{"RAID 5 (G=21)", 21}}) {
        trials.push_back([&opts, warmup, measure, org] {
            SimConfig cfg;
            cfg.numDisks = 21;
            cfg.stripeUnits = org.G;
            cfg.geometry = geometryFrom(opts);
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
                {org.name, fmtDouble(100.0 / org.G, 1),
                 fmtDouble(healthy.meanReadMs, 1),
                 fmtDouble(healthy.meanWriteMs, 1),
                 fmtDouble(degraded.meanMs, 1),
                 fmtDouble(outcome.report.reconstructionTimeSec, 1),
                 fmtDouble(outcome.userDuringRecon.meanMs, 1)});
            noteSim(result, sim);
            return result;
        });
    }

    const SweepOutcome outcome =
        runTrials(opts, "ablation_mirroring", table, trials);

    std::cout << "Organization comparison (rate = " << opts.getInt("rate")
              << "/s, 50% reads, 8-way baseline reconstruction)\n";
    emit(opts, table);
    writeJsonRecord(opts, "ablation_mirroring", outcome);
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
