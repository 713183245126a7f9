/**
 * @file
 * General-purpose simulation CLI: exposes every SimConfig knob, runs
 * the standard failure/recovery timeline, and prints a phase report.
 * The one binary to reach for when exploring a configuration the
 * benches don't sweep.
 *
 *   simulate --help
 *   simulate --disks 21 --g 6 --rate 210 --algorithm redirect \
 *            --processes 8 --priority
 *   simulate --g 5 --sparing --copyback
 */
#include <fstream>
#include <iostream>

#include "core/array_sim.hpp"
#include "ec/data_plane.hpp"
#include "layout/criteria.hpp"
#include "model/reliability.hpp"
#include "util/error.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace {

using namespace declust;

ReconAlgorithm
algorithmByName(const std::string &name)
{
    if (name == "baseline")
        return ReconAlgorithm::Baseline;
    if (name == "user-writes")
        return ReconAlgorithm::UserWrites;
    if (name == "redirect")
        return ReconAlgorithm::Redirect;
    if (name == "piggyback")
        return ReconAlgorithm::RedirectPiggyback;
    DECLUST_FATAL("unknown algorithm '", name,
                  "' (baseline|user-writes|redirect|piggyback)");
}

} // namespace

namespace {

int
run(int argc, char **argv)
{
    using namespace declust;
    Options opts("declust simulator: fault-free -> degraded -> rebuild");
    opts.add("disks", "21", "array width C");
    opts.add("g", "5", "parity stripe size G (G == C selects RAID 5)");
    opts.add("tracks", "1", "tracks per cylinder (14 = paper scale)");
    opts.add("cylinders", "949", "cylinders");
    opts.add("scheduler", "cvscan", "head scheduler");
    opts.add("rate", "105", "user accesses per second");
    opts.add("reads", "0.5", "read fraction of user accesses");
    opts.add("access-units", "1", "access size in stripe units");
    opts.add("unit-sectors", "8", "stripe unit size in 512 B sectors");
    opts.add("algorithm", "baseline", "reconstruction algorithm");
    opts.add("processes", "8", "reconstruction processes");
    opts.add("throttle-ms", "0", "per-cycle reconstruction delay");
    opts.add("cpu-ms", "0", "serial controller CPU cost per access");
    opts.add("xor-ms", "0", "XOR cost per unit combined");
    opts.add("data-plane", "off",
             "real parity bytes: off|verify (ec/data_plane.hpp)");
    opts.add("replacement-delay", "0", "seconds until replacement");
    opts.add("warmup", "5", "warmup seconds per phase");
    opts.add("measure", "30", "measured seconds per phase");
    opts.add("fail-disk", "0", "which disk to fail");
    opts.add("mtbf-khours", "150", "per-disk MTBF, thousands of hours");
    opts.add("seed", "1", "rng seed");
    opts.addFlag("priority", "user I/O preempts rebuild I/O");
    opts.addFlag("track-buffer", "model the drives' track buffers");
    opts.addFlag("sparing", "rebuild into distributed spares");
    opts.addFlag("copyback", "run copyback after a sparing rebuild");
    opts.add("trace-ops", "", "write a CSV of every disk access here");
    opts.addFlag("audit", "print the layout criteria audit first");
    if (!opts.parse(argc, argv))
        return 1;

    SimConfig cfg;
    cfg.numDisks = static_cast<int>(opts.getInt("disks"));
    cfg.stripeUnits = static_cast<int>(opts.getInt("g"));
    DiskGeometry g = DiskGeometry::ibm0661();
    g.cylinders = static_cast<int>(opts.getInt("cylinders"));
    g.tracksPerCyl = static_cast<int>(opts.getInt("tracks"));
    cfg.geometry = g;
    cfg.scheduler = opts.getString("scheduler");
    cfg.accessesPerSec = opts.getDouble("rate");
    cfg.readFraction = opts.getDouble("reads");
    cfg.accessUnits = static_cast<int>(opts.getInt("access-units"));
    cfg.unitSectors = static_cast<int>(opts.getInt("unit-sectors"));
    cfg.algorithm = algorithmByName(opts.getString("algorithm"));
    cfg.reconProcesses = static_cast<int>(opts.getInt("processes"));
    cfg.reconThrottle = msToTicks(opts.getDouble("throttle-ms"));
    cfg.prioritizeUserIo = opts.getFlag("priority");
    cfg.trackBuffer = opts.getFlag("track-buffer");
    cfg.distributedSparing = opts.getFlag("sparing");
    cfg.controllerOverheadMs = opts.getDouble("cpu-ms");
    cfg.xorOverheadMsPerUnit = opts.getDouble("xor-ms");
    if (!ec::dataPlaneModeFromName(opts.getString("data-plane"),
                                   &cfg.dataPlane))
        DECLUST_FATAL("unknown --data-plane '",
                      opts.getString("data-plane"), "' (off|verify)");
    cfg.replacementDelaySec = opts.getDouble("replacement-delay");
    cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed"));

    const double warmup = opts.getDouble("warmup");
    const double measure = opts.getDouble("measure");

    ArraySimulation sim(cfg);

    std::ofstream opTrace;
    if (const std::string path = opts.getString("trace-ops");
        !path.empty()) {
        opTrace.open(path);
        if (!opTrace)
            DECLUST_FATAL("cannot open op-trace file '", path, "'");
        opTrace << "completed_ms,disk,sector,count,op,priority,"
                   "queue_ms,service_ms\n";
        sim.controller().setAccessTracer([&opTrace](
                                             const AccessRecord &r) {
            opTrace << fmtDouble(ticksToMs(r.completed), 3) << ","
                    << r.disk << "," << r.startSector << ","
                    << r.sectorCount << "," << (r.isWrite ? "W" : "R")
                    << ","
                    << (r.priority == Priority::Background ? "bg"
                                                           : "user")
                    << ","
                    << fmtDouble(ticksToMs(r.dispatched - r.enqueued), 3)
                    << ","
                    << fmtDouble(ticksToMs(r.completed - r.dispatched), 3)
                    << "\n";
        });
    }

    std::cout << "array: C=" << cfg.numDisks << " G=" << cfg.stripeUnits
              << " alpha=" << fmtDouble(cfg.alpha(), 2) << " ("
              << sim.controller().numDataUnits() << " data units, "
              << (cfg.distributedSparing ? "distributed sparing"
                                         : "dedicated replacement")
              << ")\n";

    if (opts.getFlag("audit"))
        std::cout << "\n"
                  << auditLayout(sim.controller().layout(), 0.15).summary()
                  << "\n";

    TablePrinter table({"phase", "mean ms", "read ms", "write ms",
                        "p90 ms", "disk util", "duration s"});
    auto addPhase = [&table](const std::string &name,
                             const PhaseStats &ps, const std::string &dur) {
        table.addRow({name, fmtDouble(ps.meanMs, 1),
                      fmtDouble(ps.meanReadMs, 1),
                      fmtDouble(ps.meanWriteMs, 1),
                      fmtDouble(ps.p90Ms, 1),
                      fmtDouble(ps.meanDiskUtilization, 2), dur});
    };

    addPhase("fault-free", sim.runFaultFree(warmup, measure), "-");
    addPhase("degraded",
             sim.failAndRunDegraded(
                 warmup, measure, static_cast<int>(opts.getInt("fail-disk"))),
             "-");
    const ReconOutcome recon = sim.reconstruct();
    addPhase("rebuilding", recon.userDuringRecon,
             fmtDouble(recon.report.reconstructionTimeSec, 1));
    if (cfg.distributedSparing && opts.getFlag("copyback")) {
        const CopybackOutcome cb = sim.copyback();
        addPhase("copyback", cb.userDuringCopyback,
                 fmtDouble(cb.copybackTimeSec, 1));
    }
    sim.drain();
    sim.controller().verifyConsistency();
    table.print(std::cout);

    const double mttdlYears =
        mttdlFromReconstruction(cfg.numDisks,
                                opts.getDouble("mtbf-khours") * 1000.0,
                                recon.report.reconstructionTimeSec,
                                cfg.replacementDelaySec) /
        (24 * 365.0);
    std::cout << "\nrebuild: " << recon.report.cycles << " units swept, "
              << recon.report.skipped << " skipped; repair window "
              << fmtDouble(recon.totalRepairSec, 1) << " s -> MTTDL "
              << fmtDouble(mttdlYears, 0)
              << " years; contents verified.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const declust::ConfigError &e) {
        std::cerr << "configuration error: " << e.what() << "\n";
        return 1;
    }
}
