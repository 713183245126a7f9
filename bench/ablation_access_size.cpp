/**
 * @file
 * Ablation: user access size (section 6's closing discussion).
 *
 * The paper's experiments fix accesses at one stripe unit but note that
 * for larger accesses two effects compete: declustered parity reaches
 * its large-write optimization with smaller writes (its parity stripes
 * are shorter), while left-symmetric RAID 5 retains maximal read
 * parallelism. This bench sweeps the access size for a declustered
 * (G = 5) and a RAID 5 (G = 21) array and reports fault-free response
 * times for 100% reads and 100% writes.
 */
#include <iostream>

#include "bench_common.hpp"

static int
run(int argc, char **argv)
{
    using namespace declust;
    using namespace declust::bench;

    Options opts("Ablation: access size vs layout");
    addCommonOptions(opts);
    opts.add("rate", "30", "user access rate (larger ops, lower rate)");
    opts.add("sizes", "1,2,4,8,16", "access sizes in 4 KB units");
    if (!opts.parse(argc, argv))
        return 1;
    if (!bench::applyDataPlaneOption(opts))
        return 1;

    const double warmup = opts.getDouble("warmup");
    const double measure = opts.getDouble("measure");

    TablePrinter table({"access KB", "G", "alpha", "read ms",
                        "write ms"});

    std::vector<Trial> trials;
    for (long units : opts.getIntList("sizes")) {
        for (int G : {5, 21}) {
            trials.push_back([&opts, warmup, measure, units, G] {
                TrialResult result;
                double readMs = 0, writeMs = 0;
                for (double readFraction : {1.0, 0.0}) {
                    SimConfig cfg;
                    cfg.numDisks = 21;
                    cfg.stripeUnits = G;
                    cfg.geometry = geometryFrom(opts);
                    cfg.accessesPerSec = opts.getDouble("rate");
                    cfg.readFraction = readFraction;
                    cfg.accessUnits = static_cast<int>(units);
                    cfg.seed =
                        static_cast<std::uint64_t>(opts.getInt("seed"));
                    ArraySimulation sim(cfg);
                    const PhaseStats ps =
                        sim.runFaultFree(warmup, measure);
                    (readFraction == 1.0 ? readMs : writeMs) = ps.meanMs;
                    noteSim(result, sim);
                }
                result.rows.push_back(
                    {std::to_string(units * 4), std::to_string(G),
                     fmtDouble((G - 1) / 20.0, 2), fmtDouble(readMs, 1),
                     fmtDouble(writeMs, 1)});
                return result;
            });
        }
    }

    const SweepOutcome outcome =
        runTrials(opts, "ablation_access_size", table, trials);

    std::cout << "Access-size ablation, fault-free, rate = "
              << opts.getDouble("rate") << "/s\n";
    emit(opts, table);
    writeJsonRecord(opts, "ablation_access_size", outcome);
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
