/**
 * @file
 * Companion to figure 6: the M/M/1 queueing model (src/model/queueing)
 * against simulation, fault-free and degraded, across the alpha sweep.
 *
 * The analytic model uses only the striping driver's access counts and
 * the disk's mean random service time; agreement in shape (flat in
 * alpha fault-free, growing with alpha degraded) plus utilization
 * agreement within a few percent validates both the model and the
 * simulator's accounting. Response-time agreement is looser — real
 * disks are neither memoryless nor single-class — which is the same
 * lesson the paper draws about the Muntz & Lui model in section 8.3.
 */
#include <iostream>

#include "bench_common.hpp"
#include "model/queueing.hpp"

static int
run(int argc, char **argv)
{
    using namespace declust;
    using namespace declust::bench;

    Options opts("Figure 6 companion: queueing model vs simulation");
    addCommonOptions(opts);
    opts.add("rate", "210", "user access rate");
    opts.add("reads", "1.0", "read fraction");
    if (!opts.parse(argc, argv))
        return 1;
    if (!bench::applyDataPlaneOption(opts))
        return 1;

    const double warmup = opts.getDouble("warmup");
    const double measure = opts.getDouble("measure");
    const double rate = opts.getDouble("rate");
    const double readFraction = opts.getDouble("reads");
    const DiskGeometry geometry = geometryFrom(opts);

    TablePrinter table({"alpha", "G", "sim ff ms", "model ff ms",
                        "sim deg ms", "model deg ms", "sim util",
                        "model util"});

    std::vector<Trial> trials;
    for (int G : paperStripeSizes()) {
        trials.push_back([&opts, warmup, measure, rate, readFraction,
                          geometry, G] {
            SimConfig cfg;
            cfg.numDisks = 21;
            cfg.stripeUnits = G;
            cfg.geometry = geometry;
            cfg.accessesPerSec = rate;
            cfg.readFraction = readFraction;
            cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed"));

            ArraySimulation sim(cfg);
            const PhaseStats simFf = sim.runFaultFree(warmup, measure);
            const PhaseStats simDeg =
                sim.failAndRunDegraded(warmup, measure);

            QueueModelConfig mc;
            mc.numDisks = cfg.numDisks;
            mc.stripeUnits = G;
            mc.userAccessesPerSec = rate;
            mc.readFraction = readFraction;
            mc.serviceMs = meanServiceMs(geometry);
            const QueueModelResult mFf = faultFreeResponse(mc);
            const QueueModelResult mDeg = degradedResponse(mc);

            TrialResult result;
            result.rows.push_back(
                {fmtDouble(cfg.alpha(), 2), std::to_string(G),
                 fmtDouble(simFf.meanMs, 1),
                 mFf.saturated ? "sat" : fmtDouble(mFf.meanMs, 1),
                 fmtDouble(simDeg.meanMs, 1),
                 mDeg.saturated ? "sat" : fmtDouble(mDeg.meanMs, 1),
                 fmtDouble(simFf.meanDiskUtilization, 3),
                 fmtDouble(mFf.utilization, 3)});
            noteSim(result, sim);
            return result;
        });
    }

    const SweepOutcome outcome =
        runTrials(opts, "fig6_model_vs_sim", table, trials);

    std::cout << "Queueing model vs simulation (rate = " << rate
              << "/s, reads = " << readFraction << ")\n";
    emit(opts, table);
    writeJsonRecord(opts, "fig6_model_vs_sim", outcome);
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
