/**
 * @file
 * Ablation: double-failure exposure vs declustering ratio.
 *
 * Section 2 observes that C and G together set data reliability. This
 * bench quantifies both halves of the story for each alpha:
 *
 *  - the *blast radius*: the expected fraction of parity stripes
 *    destroyed if a second disk fails during the repair window (from
 *    the layout's pair-overlap structure — lambda stripes per table for
 *    a declustered layout, every stripe for RAID 5), and
 *  - the *window*: the measured 8-way reconstruction time, converted to
 *    MTTDL with the classical formula.
 *
 * Declustering wins twice: a shorter window (smaller alpha rebuilds
 * faster) and a smaller fraction of data lost if the window is hit —
 * at the price of parity overhead 1/G.
 */
#include <iostream>

#include "bench_common.hpp"
#include "layout/vulnerability.hpp"
#include "model/reliability.hpp"

static int
run(int argc, char **argv)
{
    using namespace declust;
    using namespace declust::bench;

    Options opts("Ablation: double-failure exposure vs alpha");
    addCommonOptions(opts);
    opts.add("rate", "105", "user access rate");
    opts.add("mtbf-khours", "150", "per-disk MTBF in thousands of hours");
    if (!opts.parse(argc, argv))
        return 1;
    if (!bench::applyDataPlaneOption(opts))
        return 1;

    const double warmup = opts.getDouble("warmup");
    const double mtbfHours = opts.getDouble("mtbf-khours") * 1000.0;

    TablePrinter table({"alpha", "G", "parity %", "loss frac on 2nd fail",
                        "recon time s", "MTTDL years"});

    std::vector<Trial> trials;
    for (int G : paperStripeSizes()) {
        trials.push_back([&opts, warmup, mtbfHours, G] {
            SimConfig cfg;
            cfg.numDisks = 21;
            cfg.stripeUnits = G;
            cfg.geometry = geometryFrom(opts);
            cfg.accessesPerSec = opts.getDouble("rate");
            cfg.readFraction = 0.5;
            cfg.algorithm = ReconAlgorithm::Baseline;
            cfg.reconProcesses = 8;
            cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed"));

            ArraySimulation sim(cfg);
            const VulnerabilityReport vuln =
                analyzeDoubleFailure(sim.controller().layout());
            sim.failAndRunDegraded(warmup, warmup);
            const ReconOutcome outcome = sim.reconstruct();

            const double mttdlYears =
                mttdlFromReconstruction(
                    cfg.numDisks, mtbfHours,
                    outcome.report.reconstructionTimeSec) /
                (24 * 365.0);

            TrialResult result;
            result.rows.push_back(
                {fmtDouble(cfg.alpha(), 2), std::to_string(G),
                 fmtDouble(100.0 / G, 1),
                 fmtDouble(vuln.meanLossFraction, 3),
                 fmtDouble(outcome.report.reconstructionTimeSec, 1),
                 fmtDouble(mttdlYears, 0)});
            noteSim(result, sim);
            return result;
        });
    }

    const SweepOutcome outcome =
        runTrials(opts, "ablation_double_failure", table, trials);

    std::cout << "Double-failure exposure vs alpha (rate = "
              << opts.getInt("rate") << "/s, 8-way baseline rebuild, "
              << "MTBF = " << mtbfHours << " h)\n";
    emit(opts, table);
    writeJsonRecord(opts, "ablation_double_failure", outcome);
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
