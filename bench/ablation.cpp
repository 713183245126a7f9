/**
 * @file
 * `ablation <study> [options]`: the paper's section-8 replacement-disk
 * limit and its section-9 future-work items, each re-run as a sweep.
 *
 * Every study is a 21-disk array at --rate accesses/sec, 50% reads, with
 * an eight-way baseline reconstruction, one ArraySimulation and one table
 * row per sweep point. An entry of kStudies holds only what sets a study
 * apart: options, columns, sweep points, SimConfig changes, phases, row
 * and title. Adding a study is adding an entry.
 */
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "layout/vulnerability.hpp"
#include "model/reliability.hpp"

namespace {

using namespace declust;
using namespace declust::bench;

/** One sweep point; each study reads only the fields it sweeps. */
struct Point
{
    const char *label = "";
    int G = 0;        ///< parity stripe size; 0 takes --g
    double x = 0.0;   ///< the swept number: ms, access units, sectors
    bool on = false;  ///< the swept switch: priority, spares, buffer
};

/** The phases a sweep point runs, in this order. */
enum Phase : unsigned {
    kFaultFree = 1,       ///< a fault-free window: warmup, then measure
    kWriteTwin = 2,       ///< that window on a twin array at 100% writes
    kRebuild = 4,         ///< fail a disk, degraded warmup + warmup, rebuild
    kMeasureDegraded = 8, ///< with kRebuild: degraded warmup + measure
};

/** What one sweep point measured, for its study's row. */
struct Run
{
    const Options &opts;
    const Point &point;
    const SimConfig &cfg;
    ArraySimulation &sim;
    PhaseStats healthy{};
    PhaseStats writes{};
    PhaseStats degraded{};
    ReconOutcome recon{};
    CopybackOutcome copyback{};
};

using Row = std::vector<std::string>;

struct Knob
{
    const char *name, *defaultValue, *help;
};

/** One study. Its sweep is each value of list option `sweep` (as
 * Point::x; integers unless sweepDoubles) times each fixed point. */
struct Study
{
    const char *name;
    const char *description; ///< the --help headline
    std::vector<Knob> options; ///< after the shared scaling options
    std::vector<std::string> columns;
    const char *sweep = nullptr;
    bool sweepDoubles = false;
    std::vector<Point> fixed = {Point{}};
    /** SimConfig changes beyond the shared base, if any. */
    void (*configure)(const Options &, const Point &, SimConfig &) = nullptr;
    unsigned phases = 0;
    Row (*row)(const Run &) = nullptr;
    void (*title)(const Options &, std::ostream &) = nullptr;
};

const Knob kG{"g", "5", "parity stripe size"};

/** The one-decimal format most cells use. */
std::string
fmt1(double value)
{
    return fmtDouble(value, 1);
}

std::string
reconSec(const Run &r)
{
    return fmt1(r.recon.report.reconstructionTimeSec);
}

std::string
reconUserMs(const Run &r)
{
    return fmt1(r.recon.userDuringRecon.meanMs);
}

/** One point per stripe size, or two (switch off, on) if @p toggled. */
std::vector<Point>
stripeSizes(const std::vector<int> &sizes, bool toggled)
{
    std::vector<Point> points;
    for (int G : sizes) {
        points.push_back({.G = G});
        if (toggled)
            points.push_back({.G = G, .on = true});
    }
    return points;
}

/** Priority and throttle: user priority on/off, per-cycle delay in ms. */
void
throttled(const Options &, const Point &p, SimConfig &cfg)
{
    cfg.prioritizeUserIo = p.on;
    cfg.reconThrottle = msToTicks(p.x);
}

const Study kStudies[] = {
    // Section 6: large writes on short stripes vs RAID 5's read spread.
    {.name = "access_size", .description = "Ablation: access size vs layout",
     .options = {{"rate", "30", "user access rate (larger ops, lower rate)"},
                 {"sizes", "1,2,4,8,16", "access sizes in 4 KB units"}},
     .columns = {"access KB", "G", "alpha", "read ms", "write ms"},
     .sweep = "sizes",
     .fixed = {{.G = 5}, {.G = 21}},
     .configure = [](const Options &, const Point &p, SimConfig &cfg) {
         cfg.accessUnits = static_cast<int>(p.x);
         cfg.readFraction = 1.0;
     },
     .phases = kFaultFree | kWriteTwin,
     .row = [](const Run &r) -> Row {
         return {std::to_string(static_cast<long>(r.point.x) * 4),
                 std::to_string(r.point.G), fmtDouble(r.cfg.alpha(), 2),
                 fmt1(r.healthy.meanMs), fmt1(r.writes.meanMs)};
     },
     .title = [](const Options &o, std::ostream &out) {
         out << "Access-size ablation, fault-free, rate = "
             << o.getDouble("rate") << "/s\n";
     }},

    // Section 9: does the declustering win survive a slow controller?
    {.name = "cpu_overhead",
     .description = "Ablation: controller CPU / XOR overhead",
     .options = {{"rate", "105", "user access rate"},
                 kG,
                 {"cpu-ms", "0,0.2,0.5,1.0,1.5,2.0",
                  "controller ms per disk access"},
                 {"xor-ms", "0.05", "XOR ms per stripe unit combined"}},
     .columns = {"cpu ms/access", "xor ms/unit", "fault-free ms",
                 "recon time s", "user resp during recon ms", "cpu util"},
     .sweep = "cpu-ms",
     .sweepDoubles = true,
     .configure = [](const Options &o, const Point &p, SimConfig &cfg) {
         cfg.controllerOverheadMs = p.x;
         cfg.xorOverheadMsPerUnit = p.x > 0 ? o.getDouble("xor-ms") : 0.0;
     },
     .phases = kFaultFree | kRebuild,
     .row = [](const Run &r) -> Row {
         return {fmtDouble(r.point.x, 2),
                 fmtDouble(r.cfg.xorOverheadMsPerUnit, 2),
                 fmt1(r.healthy.meanMs), reconSec(r), reconUserMs(r),
                 fmtDouble(r.sim.controller().cpuUtilization(), 2)};
     },
     .title = [](const Options &o, std::ostream &out) {
         out << "CPU/XOR-overhead ablation (G=" << o.getInt("g") << ", rate="
             << o.getInt("rate") << "/s, 8-way baseline reconstruction)\n";
     }},

    // Section 2: stripes a second failure destroys; MTTDL of the rebuild.
    {.name = "double_failure",
     .description = "Ablation: double-failure exposure vs alpha",
     .options = {{"rate", "105", "user access rate"},
                 {"mtbf-khours", "150",
                  "per-disk MTBF in thousands of hours"}},
     .columns = {"alpha", "G", "parity %", "loss frac on 2nd fail",
                 "recon time s", "MTTDL years"},
     .fixed = stripeSizes(paperStripeSizes(), false),
     .phases = kRebuild,
     .row = [](const Run &r) -> Row {
         const VulnerabilityReport vuln =
             analyzeDoubleFailure(r.sim.controller().layout());
         const double mttdlHours = mttdlFromReconstruction(
             r.cfg.numDisks, r.opts.getDouble("mtbf-khours") * 1000.0,
             r.recon.report.reconstructionTimeSec);
         return {fmtDouble(r.cfg.alpha(), 2), std::to_string(r.point.G),
                 fmt1(100.0 / r.point.G),
                 fmtDouble(vuln.meanLossFraction, 3), reconSec(r),
                 fmtDouble(mttdlHours / (24 * 365.0), 0)};
     },
     .title = [](const Options &o, std::ostream &out) {
         out << "Double-failure exposure vs alpha (rate = "
             << o.getInt("rate") << "/s, 8-way baseline rebuild, "
             << "MTBF = " << o.getDouble("mtbf-khours") * 1000.0 << " h)\n";
     }},

    // G = 2 is interleaved declustered mirroring ("parity" is a copy).
    {.name = "mirroring",
     .description = "Ablation: mirroring vs parity declustering vs RAID 5",
     .options = {{"rate", "105", "user access rate"}},
     .columns = {"organization", "overhead %", "ff read ms", "ff write ms",
                 "degraded ms", "recon time s", "user resp during recon ms"},
     .fixed = {{.label = "mirroring (G=2)", .G = 2},
               {.label = "declustered (G=5)", .G = 5},
               {.label = "RAID 5 (G=21)", .G = 21}},
     .phases = kFaultFree | kRebuild | kMeasureDegraded,
     .row = [](const Run &r) -> Row {
         return {r.point.label, fmt1(100.0 / r.point.G),
                 fmt1(r.healthy.meanReadMs), fmt1(r.healthy.meanWriteMs),
                 fmt1(r.degraded.meanMs), reconSec(r), reconUserMs(r)};
     },
     .title = [](const Options &o, std::ostream &out) {
         out << "Organization comparison (rate = " << o.getInt("rate")
             << "/s, 50% reads, 8-way baseline reconstruction)\n";
     }},

    // Section 9's two mechanisms, alone and together, on one recovery.
    {.name = "priority",
     .description = "Ablation: priority scheduling vs throttling",
     .options = {{"rate", "210", "user access rate"}, kG},
     .columns = {"policy", "recon time s", "user resp during recon ms",
                 "p90 ms"},
     .fixed = {{.label = "none"},
               {.label = "priority", .on = true},
               {.label = "throttle 50ms", .x = 50},
               {.label = "priority + throttle", .x = 50, .on = true}},
     .configure = throttled, .phases = kRebuild,
     .row = [](const Run &r) -> Row {
         return {r.point.label, reconSec(r), reconUserMs(r),
                 fmt1(r.recon.userDuringRecon.p90Ms)};
     },
     .title = [](const Options &o, std::ostream &out) {
         out << "Priority/throttle ablation (G=" << o.getInt("g") << ", rate="
             << o.getInt("rate") << "/s, 8-way baseline reconstruction)\n";
     }},

    // The paper fixes CVSCAN (table 5-1); how much does that matter?
    {.name = "scheduler",
     .description = "Ablation: head scheduler vs recovery performance",
     .options = {{"rate", "210", "user access rate"}, kG},
     .columns = {"scheduler", "fault-free ms", "degraded ms",
                 "recon time s", "user resp during recon ms"},
     .fixed = {{.label = "fcfs"}, {.label = "sstf"}, {.label = "scan"},
               {.label = "cvscan"}},
     .configure = [](const Options &, const Point &p, SimConfig &cfg) {
         cfg.scheduler = p.label;
     },
     .phases = kFaultFree | kRebuild | kMeasureDegraded,
     .row = [](const Run &r) -> Row {
         return {r.point.label, fmt1(r.healthy.meanMs),
                 fmt1(r.degraded.meanMs), reconSec(r), reconUserMs(r)};
     },
     .title = [](const Options &o, std::ostream &out) {
         out << "Scheduler ablation (G=" << o.getInt("g") << ", rate="
             << o.getInt("rate")
             << "/s, 50% reads, 8-way baseline reconstruction)\n";
     }},

    // Section 8's replacement-disk limit vs spare units on every disk.
    {.name = "sparing",
     .description = "Ablation: dedicated replacement vs distributed sparing",
     .options = {{"rate", "105", "user access rate"},
                 {"processes", "8", "reconstruction processes"}},
     .columns = {"alpha", "G", "mode", "recon time s", "user resp ms",
                 "copyback s"},
     .fixed = stripeSizes({3, 4, 5, 6, 10}, true),
     .configure = [](const Options &o, const Point &p, SimConfig &cfg) {
         cfg.reconProcesses = static_cast<int>(o.getInt("processes"));
         cfg.distributedSparing = p.on;
     },
     .phases = kRebuild,
     .row = [](const Run &r) -> Row {
         return {fmtDouble(r.cfg.alpha(), 2), std::to_string(r.point.G),
                 r.point.on ? "distributed" : "dedicated", reconSec(r),
                 reconUserMs(r),
                 r.point.on ? fmt1(r.copyback.copybackTimeSec) : "-"};
     },
     .title = [](const Options &o, std::ostream &out) {
         out << "Sparing ablation (rate = " << o.getInt("rate") << "/s, "
             << o.getInt("processes")
             << "-way baseline reconstruction; distributed mode spends "
                "1/(G+1) capacity on spares)\n";
     }},

    // Section 9: recovery time vs user response under a per-cycle delay.
    {.name = "throttle",
     .description = "Ablation: reconstruction throttle trade-off",
     .options = {{"rate", "210", "user access rate"},
                 kG,
                 {"delays", "0,10,25,50,100", "per-cycle delays (ms)"}},
     .columns = {"throttle ms", "recon time s", "user resp during recon ms",
                 "p90 ms"},
     .sweep = "delays",
     .configure = throttled, .phases = kRebuild,
     .row = [](const Run &r) -> Row {
         return {std::to_string(static_cast<long>(r.point.x)), reconSec(r),
                 reconUserMs(r), fmt1(r.recon.userDuringRecon.p90Ms)};
     },
     .title = [](const Options &o, std::ostream &out) {
         out << "Throttle ablation (G=" << o.getInt("g") << ", rate="
             << o.getInt("rate") << "/s, 8-way baseline reconstruction)\n";
     }},

    // Section 8's track buffers: last read track cached, hits in 0.5 ms.
    {.name = "track_buffer", .description = "Ablation: track buffer on/off",
     .options = {{"rate", "105", "user access rate"}},
     .columns = {"alpha", "G", "buffer", "fault-free ms", "recon time s",
                 "user resp during recon ms"},
     .fixed = stripeSizes({4, 10, 21}, true),
     .configure = [](const Options &, const Point &p, SimConfig &cfg) {
         cfg.trackBuffer = p.on;
     },
     .phases = kFaultFree | kRebuild,
     .row = [](const Run &r) -> Row {
         return {fmtDouble(r.cfg.alpha(), 2), std::to_string(r.point.G),
                 r.point.on ? "on" : "off", fmt1(r.healthy.meanMs),
                 reconSec(r), reconUserMs(r)};
     },
     .title = [](const Options &o, std::ostream &out) {
         out << "Track-buffer ablation (rate = " << o.getInt("rate")
             << "/s, 8-way baseline reconstruction)\n";
     }},

    // Section 9: fewer, larger rebuild cycles vs coarser parity updates.
    {.name = "unit_size", .description = "Ablation: stripe unit size",
     .options = {{"rate", "105", "user access rate"},
                 kG,
                 {"unit-sectors", "2,4,8,16,48",
                  "unit sizes in 512 B sectors"}},
     .columns = {"unit KB", "units/disk", "fault-free ms", "recon time s",
                 "user resp during recon ms"},
     .sweep = "unit-sectors",
     .configure = [](const Options &, const Point &p, SimConfig &cfg) {
         cfg.unitSectors = static_cast<int>(p.x);
     },
     .phases = kFaultFree | kRebuild,
     .row = [](const Run &r) -> Row {
         return {fmt1(r.point.x * 0.5),
                 std::to_string(r.sim.controller().unitsPerDisk()),
                 fmt1(r.healthy.meanMs), reconSec(r), reconUserMs(r)};
     },
     .title = [](const Options &o, std::ostream &out) {
         out << "Stripe-unit-size ablation (G=" << o.getInt("g")
             << ", rate=" << o.getInt("rate") << "/s, 50% reads)\n";
     }},
};

/** Run one sweep point through its study's phases. */
TrialResult
runPoint(const Study &study, const Options &opts, const Point &point)
{
    const double warmup = opts.getDouble("warmup");
    const double measure = opts.getDouble("measure");
    SimConfig cfg; // 21 disks, 50% reads, baseline reconstruction
    cfg.stripeUnits =
        point.G > 0 ? point.G : static_cast<int>(opts.getInt("g"));
    cfg.geometry = geometryFrom(opts);
    cfg.accessesPerSec = opts.getDouble("rate");
    cfg.reconProcesses = 8;
    cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed"));
    if (study.configure)
        study.configure(opts, point, cfg);
    TrialResult result;
    ArraySimulation sim(cfg);
    Run run{opts, point, cfg, sim};
    if (study.phases & kFaultFree)
        run.healthy = sim.runFaultFree(warmup, measure);
    if (study.phases & kWriteTwin) {
        SimConfig writes = cfg;
        writes.readFraction = 0.0;
        ArraySimulation twin(writes);
        run.writes = twin.runFaultFree(warmup, measure);
        noteSim(result, twin);
    }
    if (study.phases & kRebuild) {
        run.degraded = sim.failAndRunDegraded(
            warmup, study.phases & kMeasureDegraded ? measure : warmup);
        run.recon = sim.reconstruct();
        if (cfg.distributedSparing) // restore a replacement drive
            run.copyback = sim.copyback();
    }
    result.rows.push_back(study.row(run));
    noteSim(result, sim);
    return result;
}

int
run(int argc, char **argv)
{
    const Study *study = nullptr;
    for (const Study &s : kStudies)
        if (argc > 1 && std::strcmp(argv[1], s.name) == 0)
            study = &s;
    if (!study) {
        std::cerr << "usage: ablation <study> [options], <study> one of:";
        for (const Study &s : kStudies)
            std::cerr << ' ' << s.name;
        std::cerr << '\n';
        return 1;
    }

    Options opts(study->description);
    addCommonOptions(opts);
    for (const Knob &knob : study->options)
        opts.add(knob.name, knob.defaultValue, knob.help);
    // The options follow the study name, which --help shows.
    std::string prog = std::string(argv[0]) + " " + argv[1];
    argv[1] = prog.data();
    if (!opts.parse(argc - 1, argv + 1) || !applyDataPlaneOption(opts))
        return 1;

    std::vector<Trial> trials;
    std::vector<double> values{0.0};
    if (study->sweepDoubles) {
        values = opts.getDoubleList(study->sweep);
    } else if (study->sweep) {
        const std::vector<long> ints = opts.getIntList(study->sweep);
        values.assign(ints.begin(), ints.end());
    }
    for (double x : values)
        for (Point point : study->fixed) {
            point.x = study->sweep ? x : point.x;
            trials.push_back([study, &opts, point] {
                return runPoint(*study, opts, point);
            });
        }

    const std::string bench = std::string("ablation_") + study->name;
    TablePrinter table(study->columns);
    const SweepOutcome outcome = runTrials(opts, bench, table, trials);
    study->title(opts, std::cout);
    emit(opts, table);
    writeJsonRecord(opts, bench, outcome);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runDriver(run, argc, argv);
}
