/**
 * @file
 * `paper <figure> [options]`: the paper's simulated figures and tables,
 * each re-run as a sweep over the parity stripe size G on a 21-disk
 * IBM 0661 array (alpha = (G-1)/20).
 *
 *   fig6_response_time    Figures 6-1/6-2: fault-free and degraded
 *                         response time, 100% reads and 100% writes
 *   fig6_model_vs_sim     Figure 6 companion: the M/M/1 queueing model
 *                         (src/model/queueing) against simulation
 *   fig8_recon_single     Figures 8-1/8-2: reconstruction time and user
 *                         response during it, all four algorithms; with
 *                         --processes 8, figures 8-3/8-4 (title and
 *                         --json "bench" name switch above one process)
 *   fig8_6_model_vs_sim   Figure 8-6: the Muntz & Lui model against
 *                         simulated eight-way reconstruction
 *   table8_1_cycle_times  Table 8-1: read/write phase times over the
 *                         last 300 reconstruction cycles, one table each
 *                         for 1 and 8 processes
 *
 * An entry of kFigures holds only what sets a figure apart: options,
 * columns, sweep points, how --shards splits a point, phases, row and
 * title. Adding a figure is adding an entry.
 *
 * --shards splits each point either across geometry slices (each shard
 * rebuilds a slice of the disk) or, for figure 6-1/6-2, across the
 * measured horizon (each shard runs the full-geometry array for
 * measure/S seconds under its own sub-seed, since slicing capacity
 * would change the seek profile that figure measures). The model
 * columns always use the full geometry.
 */
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "model/muntz_lui.hpp"
#include "model/queueing.hpp"

namespace {

using namespace declust;
using namespace declust::bench;

constexpr int kDisks = 21;

/** One sweep point; each figure fills only the fields it sweeps. */
struct Point
{
    int G = 0;
    double rate = 0.0;          ///< user accesses per second
    double reads = 0.5;         ///< read fraction
    const char *mode = "";      ///< figure 6's "read" / "write"
    int processes = 1;          ///< reconstruction processes
    std::vector<ReconAlgorithm> rebuilds = {}; ///< kRebuilds: one each
};

/** The phases a sweep point runs. */
enum class Phases {
    /** One array: fault-free warmup and measured window, then a failed
     * disk's warmup and measured window. */
    kWindows,
    /** Per Point::rebuilds algorithm, its own array: fail a disk, warm
     * up degraded, rebuild. */
    kRebuilds,
};

/** How --shards splits a sweep point, if the figure takes it. */
enum class Split { kNone, kGeometry, kHorizon };

/** What one shard of a sweep point measured. */
struct Shard
{
    PhaseSample healthy;           ///< kWindows' fault-free window
    PhaseSample degraded;          ///< kWindows' degraded window
    PhaseSample user;              ///< user I/O during the last rebuild
    std::vector<ReconReport> recon; ///< one per Point::rebuilds entry
    std::uint64_t events = 0;
    double simSec = 0.0;
};

using Row = std::vector<std::string>;
using Columns = std::vector<std::string>;

struct Knob
{
    const char *name;
    const char *defaultValue; ///< nullptr registers a flag
    const char *help;
};

struct Figure
{
    const char *name;
    const char *description;   ///< the --help headline
    Split split = Split::kNone;
    std::vector<Knob> options = {}; ///< after the shared scaling options
    Columns (*columns)(const Options &) = nullptr;
    /** One sweep and table per value; table 8-1's are process counts. */
    std::vector<int> tables = {1};
    bool (*sweep)(const Options &, int table, std::vector<Point> *) =
        nullptr;
    Phases phases = Phases::kWindows;
    Row (*row)(const Options &, const Point &, const Shard &) = nullptr;
    void (*title)(const Options &, int table, std::ostream &) = nullptr;
    /** The --json "bench" name when it is not the figure's own. */
    std::string (*bench)(const Options &) = nullptr;
};

std::string
alphaCell(int G)
{
    return fmtDouble(static_cast<double>(G - 1) / (kDisks - 1), 2);
}

std::string
phaseCell(const Accumulator &acc)
{
    return fmtDouble(acc.mean(), 0) + "(" + fmtDouble(acc.stddev(), 1) +
           ")";
}

const Figure kFigures[] = {
    // 378 writes/sec exceeds the array's capacity, as the paper notes.
    {.name = "fig6_response_time",
     .description = "Figures 6-1/6-2: fault-free and degraded response time",
     .split = Split::kHorizon,
     .columns = [](const Options &) -> Columns {
         return {"alpha", "G", "mode", "rate/s", "fault-free ms",
                 "degraded ms", "ff util", "deg util"};
     },
     .sweep = [](const Options &, int, std::vector<Point> *points) {
         for (int G : paperStripeSizes()) {
             for (double rate : {105.0, 210.0, 378.0})
                 points->push_back(
                     {.G = G, .rate = rate, .reads = 1.0, .mode = "read"});
             for (double rate : {105.0, 210.0})
                 points->push_back(
                     {.G = G, .rate = rate, .reads = 0.0, .mode = "write"});
         }
         return true;
     },
     .phases = Phases::kWindows,
     .row = [](const Options &, const Point &p, const Shard &s) -> Row {
         const bool reads = p.reads == 1.0;
         return {alphaCell(p.G), std::to_string(p.G), p.mode,
                 std::to_string(static_cast<long>(p.rate)),
                 fmtDouble(reads ? s.healthy.meanReadMs()
                                 : s.healthy.meanWriteMs(),
                           2),
                 fmtDouble(reads ? s.degraded.meanReadMs()
                                 : s.degraded.meanWriteMs(),
                           2),
                 fmtDouble(s.healthy.meanDiskUtilization(), 3),
                 fmtDouble(s.degraded.meanDiskUtilization(), 3)};
     },
     .title = [](const Options &, int, std::ostream &out) {
         out << "Figures 6-1 (reads) and 6-2 (writes): response time vs "
                "alpha, fault-free and degraded\n";
     }},

    // Agreement in shape (flat in alpha fault-free, growing degraded)
    // and in utilization validates the model and the simulator's
    // accounting; response times agree more loosely, since real disks
    // are neither memoryless nor single-class (cf. section 8.3).
    {.name = "fig6_model_vs_sim",
     .description = "Figure 6 companion: queueing model vs simulation",
     .options = {{"rate", "210", "user access rate"},
                 {"reads", "1.0", "read fraction"}},
     .columns = [](const Options &) -> Columns {
         return {"alpha", "G", "sim ff ms", "model ff ms", "sim deg ms",
                 "model deg ms", "sim util", "model util"};
     },
     .sweep = [](const Options &o, int, std::vector<Point> *points) {
         for (int G : paperStripeSizes())
             points->push_back({.G = G, .rate = o.getDouble("rate"),
                                .reads = o.getDouble("reads")});
         return true;
     },
     .phases = Phases::kWindows,
     .row = [](const Options &o, const Point &p, const Shard &s) -> Row {
         QueueModelConfig mc;
         mc.numDisks = kDisks;
         mc.stripeUnits = p.G;
         mc.userAccessesPerSec = p.rate;
         mc.readFraction = p.reads;
         mc.serviceMs = meanServiceMs(geometryFrom(o));
         const QueueModelResult ff = faultFreeResponse(mc);
         const QueueModelResult deg = degradedResponse(mc);
         return {alphaCell(p.G), std::to_string(p.G),
                 fmtDouble(s.healthy.meanMs(), 1),
                 ff.saturated ? "sat" : fmtDouble(ff.meanMs, 1),
                 fmtDouble(s.degraded.meanMs(), 1),
                 deg.saturated ? "sat" : fmtDouble(deg.meanMs, 1),
                 fmtDouble(s.healthy.meanDiskUtilization(), 3),
                 fmtDouble(ff.utilization, 3)};
     },
     .title = [](const Options &o, int, std::ostream &out) {
         out << "Queueing model vs simulation (rate = "
             << o.getDouble("rate") << "/s, reads = " << o.getDouble("reads")
             << ")\n";
     }},

    // --stripes / --algorithms narrow the sweep, e.g. to one point for
    // a paper-scale speedup measurement.
    {.name = "fig8_recon_single",
     .description = "Figures 8-1/8-2 (8-3/8-4 with --processes 8): "
                    "reconstruction vs alpha",
     .split = Split::kGeometry,
     .options = {{"rates", "105,210", "user access rates to sweep"},
                 {"processes", "1", "reconstruction processes"},
                 {"stripes", "3,4,5,6,10,18,21", "stripe sizes G to sweep"},
                 {"algorithms",
                  "baseline,user-writes,redirect,redir+piggyback",
                  "reconstruction algorithms to sweep"},
                 {"tails", nullptr,
                  "append p99/p999 response-time columns (off by "
                  "default so golden tables are unchanged)"}},
     .columns = [](const Options &o) {
         Columns c{"alpha", "G", "rate/s", "algorithm", "recon time s",
                   "user resp ms", "p90 ms"};
         if (o.getFlag("tails"))
             c.insert(c.end(), {"p99 ms", "p999 ms"});
         return c;
     },
     .sweep = [](const Options &o, int, std::vector<Point> *points) {
         std::vector<ReconAlgorithm> algorithms;
         if (!algorithmsFrom(o, "algorithms", &algorithms))
             return false;
         for (long G : o.getIntList("stripes"))
             for (long rate : o.getIntList("rates"))
                 for (ReconAlgorithm algorithm : algorithms)
                     points->push_back(
                         {.G = static_cast<int>(G),
                          .rate = static_cast<double>(rate),
                          .processes =
                              static_cast<int>(o.getInt("processes")),
                          .rebuilds = {algorithm}});
         return true;
     },
     .phases = Phases::kRebuilds,
     .row = [](const Options &o, const Point &p, const Shard &s) {
         Row row{alphaCell(p.G), std::to_string(p.G),
                 std::to_string(static_cast<long>(p.rate)),
                 toString(p.rebuilds[0]),
                 fmtDouble(s.recon[0].reconstructionTimeSec, 1),
                 fmtDouble(s.user.meanMs(), 1), fmtDouble(s.user.p90Ms(), 1)};
         if (o.getFlag("tails"))
             row.insert(row.end(), {fmtDouble(s.user.p99Ms(), 1),
                                    fmtDouble(s.user.p999Ms(), 1)});
         return row;
     },
     .title = [](const Options &o, int, std::ostream &out) {
         const long processes = o.getInt("processes");
         if (processes > 1)
             out << "Figures 8-3 (reconstruction time) and 8-4 (user "
                    "response during reconstruction), "
                 << processes << " processes\n";
         else
             out << "Figures 8-1 (reconstruction time) and 8-2 (user "
                    "response during reconstruction), "
                 << processes << " process(es)\n";
     },
     .bench = [](const Options &o) -> std::string {
         return o.getInt("processes") > 1 ? "fig8_recon_parallel"
                                          : "fig8_recon_single";
     }},

    // The model assumes every spare access of every disk feeds the
    // sweep, which only a parallel rebuild approaches; with mu the
    // disk's random-access rate it should come out pessimistic (it
    // cannot credit the replacement's sequential writes) and rank
    // user-writes worse than redirect, as the paper discusses.
    {.name = "fig8_6_model_vs_sim",
     .description = "Figure 8-6: Muntz & Lui model vs simulation",
     .split = Split::kGeometry,
     .options = {{"rate", "210", "user access rate"},
                 {"processes", "8",
                  "reconstruction processes (the model assumes all spare\n"
                  "      bandwidth is used, i.e. maximally parallel sweep)"}},
     .columns = [](const Options &) -> Columns {
         return {"alpha", "G", "sim baseline s", "sim redirect s",
                 "model baseline s", "model user-writes s",
                 "model redirect s"};
     },
     .sweep = [](const Options &o, int, std::vector<Point> *points) {
         for (int G : paperStripeSizes())
             points->push_back(
                 {.G = G, .rate = o.getDouble("rate"),
                  .processes = static_cast<int>(o.getInt("processes")),
                  .rebuilds = {ReconAlgorithm::Baseline,
                               ReconAlgorithm::Redirect}});
         return true;
     },
     .phases = Phases::kRebuilds,
     .row = [](const Options &o, const Point &p, const Shard &s) -> Row {
         const DiskGeometry geometry = geometryFrom(o);
         auto model = [&](ReconAlgorithm algorithm) {
             MlModelConfig mc;
             mc.numDisks = kDisks;
             mc.stripeUnits = p.G;
             mc.unitsPerDisk = geometry.totalSectors() / 8;
             mc.userAccessesPerSec = p.rate;
             mc.readFraction = 0.5;
             mc.maxDiskAccessRate = maxRandomAccessRate(geometry);
             mc.algorithm = algorithm;
             const auto res = muntzLuiReconstructionTime(mc);
             return fmtDouble(res.saturated ? -1.0
                                            : res.reconstructionTimeSec,
                              1);
         };
         return {alphaCell(p.G), std::to_string(p.G),
                 fmtDouble(s.recon[0].reconstructionTimeSec, 1),
                 fmtDouble(s.recon[1].reconstructionTimeSec, 1),
                 model(ReconAlgorithm::Baseline),
                 model(ReconAlgorithm::UserWrites),
                 model(ReconAlgorithm::Redirect)};
     },
     .title = [](const Options &o, int, std::ostream &out) {
         out << "Figure 8-6: analytic model (mu = "
             << fmtDouble(maxRandomAccessRate(geometryFrom(o)), 1)
             << "/s) vs simulation, rate = " << o.getDouble("rate")
             << "/s, 50% reads (-1 = model saturated)\n";
     }},

    // Standard deviations in parentheses, as in the paper. Sharded, the
    // tail window is the union of every shard's last-300-cycle window.
    {.name = "table8_1_cycle_times",
     .description = "Table 8-1: reconstruction cycle phase times",
     .split = Split::kGeometry,
     .options = {{"rate", "210", "user access rate"}},
     .columns = [](const Options &) -> Columns {
         return {"algorithm", "alpha", "read ms(sd)", "write ms(sd)",
                 "cycle ms"};
     },
     .tables = {1, 8},
     .sweep = [](const Options &o, int processes,
                 std::vector<Point> *points) {
         for (ReconAlgorithm algorithm :
              {ReconAlgorithm::Baseline, ReconAlgorithm::UserWrites,
               ReconAlgorithm::Redirect, ReconAlgorithm::RedirectPiggyback})
             for (int G : {4, 10, 21}) // alpha 0.15 / 0.45 / 1.0
                 points->push_back({.G = G, .rate = o.getDouble("rate"),
                                    .processes = processes,
                                    .rebuilds = {algorithm}});
         return true;
     },
     .phases = Phases::kRebuilds,
     .row = [](const Options &, const Point &p, const Shard &s) -> Row {
         const ReconReport &rep = s.recon[0];
         return {toString(p.rebuilds[0]), alphaCell(p.G),
                 phaseCell(rep.tailReadPhaseMs),
                 phaseCell(rep.tailWritePhaseMs),
                 fmtDouble(rep.tailReadPhaseMs.mean() +
                               rep.tailWritePhaseMs.mean(),
                           0)};
     },
     .title = [](const Options &o, int processes, std::ostream &out) {
         out << "\nTable 8-1 (" << processes
             << "-way reconstruction), rate = " << o.getInt("rate")
             << "/s, last-300-unit window:\n";
     }},
};

/** Run shard @p shard of @p shards of one sweep point. */
Shard
runShard(const Figure &figure, const Options &opts, const Point &point,
         int shard, int shards)
{
    const double warmup = opts.getDouble("warmup");
    double window = opts.getDouble("measure");
    SimConfig cfg;
    cfg.numDisks = kDisks;
    cfg.stripeUnits = point.G;
    cfg.geometry = geometryFrom(opts);
    if (figure.split == Split::kGeometry)
        cfg.geometry = shardGeometry(cfg.geometry, shard, shards);
    else if (figure.split == Split::kHorizon)
        window = shardSeconds(window, shards);
    cfg.accessesPerSec = point.rate;
    cfg.readFraction = point.reads;
    cfg.reconProcesses = point.processes;
    cfg.seed = shardSeed(static_cast<std::uint64_t>(opts.getInt("seed")),
                         shard, shards);

    Shard result;
    auto note = [&result](ArraySimulation &sim) {
        result.events += sim.eventQueue().executed();
        result.simSec += ticksToSec(sim.eventQueue().now());
    };
    if (figure.phases == Phases::kWindows) {
        ArraySimulation sim(cfg);
        sim.runFaultFree(warmup, window);
        result.healthy = sim.samplePhase(window);
        sim.failAndRunDegraded(warmup, window);
        result.degraded = sim.samplePhase(window);
        note(sim);
        return result;
    }
    for (ReconAlgorithm algorithm : point.rebuilds) {
        SimConfig rebuild = cfg;
        rebuild.algorithm = algorithm;
        ArraySimulation sim(rebuild);
        sim.failAndRunDegraded(warmup, warmup);
        const ReconReport report = sim.reconstruct().report;
        result.recon.push_back(report);
        result.user = sim.samplePhase(report.reconstructionTimeSec);
        note(sim);
    }
    return result;
}

/** Fold a point's shards, in shard-index order, into its table row. */
TrialResult
mergeShards(const Figure &figure, const Options &opts, const Point &point,
            std::vector<Shard> &parts)
{
    Shard &merged = parts[0];
    for (std::size_t s = 1; s < parts.size(); ++s) {
        ShardMerge::into(merged.healthy, parts[s].healthy);
        ShardMerge::into(merged.degraded, parts[s].degraded);
        ShardMerge::into(merged.user, parts[s].user);
        for (std::size_t r = 0; r < merged.recon.size(); ++r)
            merged.recon[r].merge(parts[s].recon[r]);
        merged.events += parts[s].events;
        merged.simSec += parts[s].simSec;
    }
    TrialResult result;
    result.rows.push_back(figure.row(opts, point, merged));
    result.events = merged.events;
    result.simSec = merged.simSec;
    return result;
}

/** Add one table's sweep to the run's totals for the --json record. */
void
accumulate(SweepOutcome &total, const SweepOutcome &sweep)
{
    total.trials += sweep.trials;
    total.jobs = sweep.jobs;
    total.shards = sweep.shards;
    total.wallSec += sweep.wallSec;
    total.events += sweep.events;
    total.simSec += sweep.simSec;
    total.shardWallSec.resize(sweep.shardWallSec.size(), 0.0);
    for (std::size_t s = 0; s < sweep.shardWallSec.size(); ++s)
        total.shardWallSec[s] += sweep.shardWallSec[s];
}

int
run(int argc, char **argv)
{
    const Figure *figure = nullptr;
    for (const Figure &f : kFigures)
        if (argc > 1 && std::strcmp(argv[1], f.name) == 0)
            figure = &f;
    if (!figure) {
        std::cerr << "usage: paper <figure> [options], <figure> one of:";
        for (const Figure &f : kFigures)
            std::cerr << ' ' << f.name;
        std::cerr << '\n';
        return 1;
    }

    Options opts(figure->description);
    addCommonOptions(opts);
    if (figure->split != Split::kNone)
        addShardOption(opts);
    for (const Knob &knob : figure->options) {
        if (knob.defaultValue)
            opts.add(knob.name, knob.defaultValue, knob.help);
        else
            opts.addFlag(knob.name, knob.help);
    }
    // The options follow the figure name, which --help shows.
    std::string prog = std::string(argv[0]) + " " + argv[1];
    argv[1] = prog.data();
    if (!opts.parse(argc - 1, argv + 1) || !applyDataPlaneOption(opts))
        return 1;
    const int shards =
        figure->split == Split::kNone ? 1 : shardsFrom(opts);
    if (!shards)
        return 1;

    const std::string bench =
        figure->bench ? figure->bench(opts) : figure->name;
    SweepOutcome total;
    for (int value : figure->tables) {
        std::vector<Point> points;
        if (!figure->sweep(opts, value, &points))
            return 1;
        std::vector<ShardedTrial<Shard>> trials;
        for (const Point &point : points)
            trials.push_back(
                {[figure, &opts, point, shards](int shard) {
                     return runShard(*figure, opts, point, shard, shards);
                 },
                 [figure, &opts, point](std::vector<Shard> &parts) {
                     return mergeShards(*figure, opts, point, parts);
                 }});
        TablePrinter table(figure->columns(opts));
        const std::string label =
            figure->tables.size() > 1
                ? bench + "/" + std::to_string(value) + "way"
                : bench;
        accumulate(total,
                   runShardedTrials(opts, label, table, trials, shards));
        figure->title(opts, value, std::cout);
        emit(opts, table);
    }
    writeJsonRecord(opts, bench, total);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runDriver(run, argc, argv);
}
