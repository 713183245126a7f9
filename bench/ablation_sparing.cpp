/**
 * @file
 * Ablation: dedicated replacement disk vs distributed sparing.
 *
 * The paper's section 8 shows the replacement disk's write stream
 * limits reconstruction (its fastest rebuilds approach the single-disk
 * write floor, and loading the replacement with random work backfires).
 * Distributed sparing — the follow-on design this library also
 * implements — rebuilds into per-stripe spare units spread over all
 * disks, so no single spindle absorbs the whole write stream. This
 * bench compares both modes across the alpha sweep and reports the
 * copyback pass that distributed sparing later needs to restore a
 * replacement drive.
 */
#include <iostream>

#include "bench_common.hpp"

static int
run(int argc, char **argv)
{
    using namespace declust;
    using namespace declust::bench;

    Options opts("Ablation: dedicated replacement vs distributed sparing");
    addCommonOptions(opts);
    opts.add("rate", "105", "user access rate");
    opts.add("processes", "8", "reconstruction processes");
    if (!opts.parse(argc, argv))
        return 1;
    if (!bench::applyDataPlaneOption(opts))
        return 1;

    const double warmup = opts.getDouble("warmup");

    TablePrinter table({"alpha", "G", "mode", "recon time s",
                        "user resp ms", "copyback s"});

    std::vector<Trial> trials;
    for (int G : {3, 4, 5, 6, 10}) {
        for (bool spared : {false, true}) {
            trials.push_back([&opts, warmup, G, spared] {
                SimConfig cfg;
                cfg.numDisks = 21;
                cfg.stripeUnits = G;
                cfg.geometry = geometryFrom(opts);
                cfg.accessesPerSec = opts.getDouble("rate");
                cfg.readFraction = 0.5;
                cfg.algorithm = ReconAlgorithm::Baseline;
                cfg.reconProcesses =
                    static_cast<int>(opts.getInt("processes"));
                cfg.distributedSparing = spared;
                cfg.seed =
                    static_cast<std::uint64_t>(opts.getInt("seed"));

                ArraySimulation sim(cfg);
                sim.failAndRunDegraded(warmup, warmup);
                const ReconOutcome outcome = sim.reconstruct();
                std::string copyback = "-";
                if (spared) {
                    const CopybackOutcome cb = sim.copyback();
                    copyback = fmtDouble(cb.copybackTimeSec, 1);
                }

                TrialResult result;
                result.rows.push_back(
                    {fmtDouble(cfg.alpha(), 2), std::to_string(G),
                     spared ? "distributed" : "dedicated",
                     fmtDouble(outcome.report.reconstructionTimeSec, 1),
                     fmtDouble(outcome.userDuringRecon.meanMs, 1),
                     copyback});
                noteSim(result, sim);
                return result;
            });
        }
    }

    const SweepOutcome outcome =
        runTrials(opts, "ablation_sparing", table, trials);

    std::cout << "Sparing ablation (rate = " << opts.getInt("rate")
              << "/s, " << opts.getInt("processes")
              << "-way baseline reconstruction; distributed mode spends "
                 "1/(G+1) capacity on spares)\n";
    emit(opts, table);
    writeJsonRecord(opts, "ablation_sparing", outcome);
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
