/**
 * @file
 * Cluster-scale serving bench: a Zipf request router over N declustered
 * arrays on worker-thread event cores (src/cluster).
 *
 * The sweep varies k, the number of arrays concurrently repairing a
 * failed disk, and reports sustained cluster IOPS plus response-time
 * tails while the remaining traffic routes around the repairs
 * (--scenario rolling staggers the k rebuilds; burst starts them at the
 * same instant). Output is a pure function of (config, seed):
 * byte-identical for every --cluster-workers count and --data-plane
 * off|verify.
 *
 * Worker scaling is measured, not projected: every trial times its
 * round loop, counts its rounds, and splits the loop, through the
 * runner's wall probe, into each worker's advance time, the parallel
 * rounds and the serial barrier gaps. Run the sweep at --cluster-workers 1 and W to read the speedup
 * off the two records. The numbers ride in the --json record's
 * cluster_scaling block; they never affect the table.
 */
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/runner.hpp"

namespace {

using namespace declust;

/** Per-k host-time record the JSON block reports after the sweep. */
struct ScalingSample
{
    int k = 0;
    /** Round-loop wall clock (advance rounds + serial barrier work). */
    double loopWallSec = 0.0;
    /** Rounds the run took (windows of epochs, see ClusterRunner). */
    int rounds = 0;
    ClusterWallBreakdown wall;
};

} // namespace

static int
run(int argc, char **argv)
{
    using namespace declust::bench;

    Options opts("Cluster serving: Zipf request router over N "
                 "declustered arrays, swept over k concurrently "
                 "rebuilding arrays");
    addCommonOptions(opts);
    addRobustnessOptions(opts);
    addClusterOptions(opts);
    opts.add("k-list", "0,1,2,4",
             "numbers of concurrently rebuilding arrays to sweep");
    opts.add("scenario", "rolling",
             "repair scenario: rolling (staggered) | burst (correlated)");
    opts.add("stagger", "2",
             "seconds between rolling rebuild starts");
    opts.add("G", "6", "parity stripe size per array");
    if (!opts.parse(argc, argv))
        return 1;
    if (!applyDataPlaneOption(opts))
        return 1;

    const std::string scenario = opts.getString("scenario");
    if (scenario != "rolling" && scenario != "burst") {
        std::cerr << "unknown --scenario '" << scenario
                  << "' (expected: rolling | burst)\n";
        return 1;
    }
    const int arrays = static_cast<int>(opts.getInt("cluster-arrays"));
    const int workers = static_cast<int>(opts.getInt("cluster-workers"));
    const std::vector<long> kList = opts.getIntList("k-list");
    for (const long k : kList) {
        if (k < 0 || k > arrays) {
            std::cerr << "--k-list entry " << k
                      << " out of range for " << arrays << " arrays\n";
            return 1;
        }
    }

    SimConfig array;
    if (!applyRobustnessOptions(opts, &array))
        return 1;
    array.numDisks = 21;
    array.stripeUnits = static_cast<int>(opts.getInt("G"));
    array.geometry = geometryFrom(opts);

    ClusterConfig base;
    base.arrays = arrays;
    base.array = array;
    base.objects = opts.getInt("objects");
    base.zipfAlpha = opts.getDouble("zipf-alpha");
    base.requestsPerSec = opts.getDouble("cluster-rps");
    base.epochSec = opts.getDouble("epoch");
    base.seed = static_cast<std::uint64_t>(opts.getInt("seed"));

    const double warmup = opts.getDouble("warmup");
    const double measure = opts.getDouble("measure");
    const double stagger = opts.getDouble("stagger");

    TablePrinter table({"k", "iops", "mean ms", "p99 ms", "p999 ms",
                        "redirects", "rebuilds done", "rebuild epochs",
                        "max qdepth"});

    // Disjoint per-trial slots; the projection reads them after the
    // sweep (deterministic content whatever the worker interleaving).
    std::vector<ScalingSample> scaling(kList.size());

    std::vector<Trial> trials;
    for (std::size_t t = 0; t < kList.size(); ++t) {
        const int k = static_cast<int>(kList[t]);
        ScalingSample *slot = &scaling[t];
        trials.push_back([base, workers, k, warmup, measure, stagger,
                          scenario, slot] {
            ClusterRunner runner(base, workers);
            runner.setWallProbe([] {
                return std::chrono::duration<double>(
                           std::chrono::steady_clock::now()
                               .time_since_epoch())
                    .count();
            });
            // Rebuilds land at the measurement boundary so the window
            // observes the repairs from their first epoch.
            if (scenario == "rolling")
                scheduleRollingRebuilds(runner, k, warmup, stagger);
            else
                scheduleFailureBurst(runner, k, warmup);
            // The scaling sample times the round loop only: topology
            // construction (layout tables, the router's alias table) is
            // one-time setup, not sustained serving.
            const auto loopStart = std::chrono::steady_clock::now();
            ClusterResult res = runner.run(warmup, measure);

            slot->k = k;
            slot->loopWallSec = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    loopStart)
                                    .count();
            slot->rounds = res.rounds;
            slot->wall = std::move(res.wall);

            TrialResult out;
            out.rows.push_back(
                {std::to_string(k), fmtDouble(res.sustainedIops, 1),
                 fmtDouble(res.phase.meanMs(), 1),
                 fmtDouble(res.phase.p99Ms(), 1),
                 fmtDouble(res.phase.p999Ms(), 1),
                 std::to_string(res.counters.redirectsIn),
                 std::to_string(res.counters.rebuildsCompleted),
                 std::to_string(res.counters.rebuildingEpochs),
                 std::to_string(res.counters.maxQueueDepth)});
            for (int i = 0; i < runner.topology().arrays(); ++i) {
                const EventQueue &eq =
                    runner.topology().array(i).eventQueue();
                out.events += eq.executed();
                out.simSec += ticksToSec(eq.now());
            }
            return out;
        });
    }

    const SweepOutcome outcome =
        runTrials(opts, "bench_cluster", table, trials);

    std::cout << "Cluster serving sweep: " << arrays << " arrays, "
              << fmtDouble(base.requestsPerSec, 0) << " req/s, Zipf("
              << fmtDouble(base.zipfAlpha, 2) << ") over "
              << base.objects << " objects, scenario " << scenario
              << "\n";
    emit(opts, table);

    // Measured worker scaling (see file header); JSON-only so the table
    // stays byte-identical across machines and worker counts.
    JsonObject scalingJson;
    for (const ScalingSample &s : scaling) {
        const ClusterWallBreakdown &w = s.wall;
        double busy = 0.0;
        for (const double a : w.advanceSec)
            busy += a;
        const double capacity =
            w.roundSec * static_cast<double>(w.advanceSec.size());
        JsonObject entry;
        entry.set("workers", static_cast<int>(w.advanceSec.size()));
        entry.set("loop_wall_sec", s.loopWallSec);
        entry.set("rounds", s.rounds);
        entry.set("round_sec", w.roundSec);
        entry.set("barrier_sec", w.barrierSec);
        entry.set("advance_sec", w.advanceSec);
        entry.set("idle_frac", capacity > 0.0 ? 1.0 - busy / capacity : 0.0);
        scalingJson.set("k_" + std::to_string(s.k), std::move(entry));
    }
    writeJsonRecord(opts, "bench_cluster", outcome, "cluster_scaling",
                    std::move(scalingJson));
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
