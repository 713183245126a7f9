/**
 * @file
 * Ablation: drive track buffers.
 *
 * The paper's simulator (and this library's default) does not credit
 * the IBM 0661's track buffer, although section 8 notes the buffers
 * when bounding minimum read time. This ablation enables a simple
 * buffer model (last read track cached; hits served in 0.5 ms) and
 * re-runs the recovery experiment across alpha. Reconstruction sweeps
 * read survivors at adjacent offsets, so buffers shorten the read
 * phase most exactly where declustering already wins.
 */
#include <iostream>

#include "bench_common.hpp"

static int
run(int argc, char **argv)
{
    using namespace declust;
    using namespace declust::bench;

    Options opts("Ablation: track buffer on/off");
    addCommonOptions(opts);
    opts.add("rate", "105", "user access rate");
    if (!opts.parse(argc, argv))
        return 1;
    if (!bench::applyDataPlaneOption(opts))
        return 1;

    const double warmup = opts.getDouble("warmup");
    const double measure = opts.getDouble("measure");

    TablePrinter table({"alpha", "G", "buffer", "fault-free ms",
                        "recon time s", "user resp during recon ms"});

    std::vector<Trial> trials;
    for (int G : {4, 10, 21}) {
        for (bool buffered : {false, true}) {
            trials.push_back([&opts, warmup, measure, G, buffered] {
                SimConfig cfg;
                cfg.numDisks = 21;
                cfg.stripeUnits = G;
                cfg.geometry = geometryFrom(opts);
                cfg.accessesPerSec = opts.getDouble("rate");
                cfg.readFraction = 0.5;
                cfg.algorithm = ReconAlgorithm::Baseline;
                cfg.reconProcesses = 8;
                cfg.trackBuffer = buffered;
                cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed"));

                ArraySimulation sim(cfg);
                const PhaseStats healthy = sim.runFaultFree(warmup, measure);
                sim.failAndRunDegraded(warmup, warmup);
                const ReconOutcome outcome = sim.reconstruct();

                TrialResult result;
                result.rows.push_back(
                    {fmtDouble(cfg.alpha(), 2), std::to_string(G),
                     buffered ? "on" : "off", fmtDouble(healthy.meanMs, 1),
                     fmtDouble(outcome.report.reconstructionTimeSec, 1),
                     fmtDouble(outcome.userDuringRecon.meanMs, 1)});
                noteSim(result, sim);
                return result;
            });
        }
    }

    const SweepOutcome outcome =
        runTrials(opts, "ablation_track_buffer", table, trials);

    std::cout << "Track-buffer ablation (rate = " << opts.getInt("rate")
              << "/s, 8-way baseline reconstruction)\n";
    emit(opts, table);
    writeJsonRecord(opts, "ablation_track_buffer", outcome);
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
