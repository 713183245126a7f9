/**
 * @file
 * The benchmark's three workloads, each a pass over public library
 * calls: recon_sweep (the paper's Fig 8-1/8-2 sweep), cluster_rebuild
 * (a 16-array Zipf-routed cluster with rolling rebuilds) and
 * mttdl_verify (failure→repair windows with the data plane verifying
 * every parity combine).
 */
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "cluster/runner.hpp"
#include "perfbench.hpp"
#include "sim/rng.hpp"
#include "sim/seed.hpp"
#include "sim/time.hpp"

namespace perfbench {

using namespace declust;

double
processCpuSec()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

int
Tracer::open(const char *name, std::int64_t unit)
{
    Span s;
    s.name = name;
    s.parent = current();
    s.unit = unit;
    s.start = nowSec();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
}

void
Tracer::close(int span)
{
    spans_[static_cast<std::size_t>(span)].end = nowSec();
    if (!stack_.empty() && stack_.back() == span)
        stack_.pop_back();
}

namespace {

[[gnu::format(printf, 1, 2)]] std::string
fmt(const char *format, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, format);
    std::vsnprintf(buf, sizeof buf, format, ap);
    va_end(ap);
    return buf;
}

constexpr int kDisks = 21;
/** Accesses a traced simulation keeps for the rungs. */
constexpr std::size_t kCaptureLimit = 4000;

DiskGeometry
scaledGeometry(int cylinders)
{
    DiskGeometry g = DiskGeometry::ibm0661();
    g.cylinders = cylinders;
    g.tracksPerCyl = 1;
    g.validate();
    return g;
}

/** Tracer callback appending into @p out until it holds @p limit. */
AccessTracer
recorder(std::vector<AccessRecord> &out, std::size_t limit)
{
    return [&out, limit](const AccessRecord &r) {
        if (out.size() < limit)
            out.push_back(r);
    };
}

double
meanGapTicks(const EventQueue &eq)
{
    return eq.executed() ? static_cast<double>(eq.now()) /
                               static_cast<double>(eq.executed())
                         : 0.0;
}

/** First sample adopts the histogram shape; later ones merge. */
void
mergePhase(PhaseSample &into, const PhaseSample &sample, bool first)
{
    if (first)
        into = sample;
    else
        ShardMerge::into(into, sample);
}

// ---------------------------------------------------------------- recon

struct ReconPoint
{
    int G;
    int rate;
    ReconAlgorithm algorithm;
};

std::vector<ReconPoint>
reconPoints(bool tiny)
{
    const std::vector<int> stripes =
        tiny ? std::vector<int>{3, 21}
             : std::vector<int>{3, 4, 5, 6, 10, 18, 21};
    const std::vector<int> rates =
        tiny ? std::vector<int>{105} : std::vector<int>{105, 210};
    const std::vector<ReconAlgorithm> algorithms =
        tiny ? std::vector<ReconAlgorithm>{ReconAlgorithm::Baseline,
                                           ReconAlgorithm::Redirect}
             : std::vector<ReconAlgorithm>{
                   ReconAlgorithm::Baseline, ReconAlgorithm::UserWrites,
                   ReconAlgorithm::Redirect,
                   ReconAlgorithm::RedirectPiggyback};
    std::vector<ReconPoint> points;
    for (int G : stripes)
        for (int rate : rates)
            for (ReconAlgorithm a : algorithms)
                points.push_back({G, rate, a});
    return points;
}

/** Degraded warmup and measured window before the rebuild (the CI
 * smoke's --warmup 0.5). */
constexpr double kReconWarmupSec = 0.5;

PassResult
reconSweep(const Settings &s, const PassOptions &opt)
{
    PassResult out;
    Tracer *tr = opt.tracer;
    const std::vector<ReconPoint> points = reconPoints(s.tiny);
    PhaseSample user;
    int reconCount = 0;
    double reconSum = 0.0;
    double gapSum = 0.0;
    for (std::size_t u = 0; u < points.size(); ++u) {
        const ReconPoint &p = points[u];
        SimConfig cfg;
        cfg.numDisks = kDisks;
        cfg.stripeUnits = p.G;
        cfg.geometry = scaledGeometry(s.tiny ? 120 : 949);
        cfg.accessesPerSec = p.rate;
        cfg.readFraction = 0.5;
        cfg.algorithm = p.algorithm;
        cfg.reconProcesses = 1;
        cfg.dataPlane = ec::DataPlaneMode::Off;
        cfg.seed = mixSeed(s.seed, u + 1);

        UnitRecord rec;
        const auto id = static_cast<std::int64_t>(u);
        SpanScope unitSpan(tr, "unit", id);
        const double u0 = nowSec();
        const double c0 = processCpuSec();
        std::vector<AccessRecord> accesses;
        try {
            std::unique_ptr<ArraySimulation> sim;
            {
                SpanScope span(tr, "construct", id);
                sim = std::make_unique<ArraySimulation>(cfg);
            }
            const double t1 = nowSec();
            rec.setupMs = (t1 - u0) * 1e3;
            if (opt.capture)
                sim->controller().setAccessTracer(
                    recorder(accesses, kCaptureLimit));
            {
                SpanScope span(tr, "degraded", id);
                sim->failAndRunDegraded(kReconWarmupSec, kReconWarmupSec);
            }
            const double t2 = nowSec();
            if (opt.capture)
                opt.capture->pendingDepths.push_back(
                    static_cast<double>(sim->eventQueue().pending()));
            ReconOutcome outcome;
            {
                SpanScope span(tr, "recon", id);
                outcome = sim->reconstruct();
            }
            const double t3 = nowSec();
            out.degradedHostSec += t2 - t1;
            out.reconHostSec += t3 - t2;

            const ReconReport &r = outcome.report;
            const PhaseSample sample =
                sim->samplePhase(r.reconstructionTimeSec);
            mergePhase(user, sample, reconCount == 0);
            reconSum += r.reconstructionTimeSec;
            ++reconCount;
            const EventQueue &eq = sim->eventQueue();
            out.events += eq.executed();
            gapSum += meanGapTicks(eq);
            rec.output = fmt(
                "G=%d rate=%d alg=%s recon_s=%.6f mean_ms=%.6f "
                "p90_ms=%.6f p99_ms=%.6f cycles=%" PRIu64
                " events=%" PRIu64,
                p.G, p.rate, toString(p.algorithm), r.reconstructionTimeSec,
                sample.meanMs(), sample.p90Ms(), sample.p99Ms(), r.cycles,
                eq.executed());
            if (opt.capture) {
                sim->controller().setAccessTracer(nullptr);
                opt.capture->tableBytes = std::max(
                    opt.capture->tableBytes,
                    static_cast<double>(
                        sim->controller().layout().mappingTableBytes()));
                opt.capture->layouts.emplace_back(cfg, 1);
                opt.capture->sims.push_back({cfg, std::move(accesses)});
            }
        } catch (const std::exception &e) {
            rec.error = e.what();
        }
        rec.hostMs = (nowSec() - u0) * 1e3;
        rec.cpuMs = (processCpuSec() - c0) * 1e3;
        out.units.push_back(std::move(rec));
    }
    out.phaseHostSec = out.degradedHostSec + out.reconHostSec;
    out.modelReconSec = reconCount ? reconSum / reconCount : 0.0;
    out.modelRespP99Ms = reconCount ? user.p99Ms() : 0.0;
    if (opt.capture && reconCount)
        opt.capture->meanEventGapTicks = gapSum / reconCount;
    return out;
}

// -------------------------------------------------------------- cluster

struct ClusterShape
{
    ClusterConfig config;
    double warmupSec;
    double measureSec;
    int rebuilds;
    double firstRebuildSec;
    double staggerSec;
};

/**
 * 16 arrays (C=21, G=6, 100-cylinder disks), Zipf(0.9) over 100k
 * objects at an open-loop 250 req/s, 70% reads, objects of 1/4/16
 * units; 8 rolling rebuilds spread evenly over the measured window.
 *
 * The per-array load is that of the 64-array, 1000 req/s cluster in
 * BENCH_10, with a quarter of its working set. On a 4-vCPU Xeon VM
 * shared with other work, the 64-array pass time varied by up to 1.6x
 * between runs (1.5x with one worker), the 16-array one by 1.2x.
 *
 * The workload seed sets when the rolling rebuilds start. The cluster
 * seed, which places objects on arrays and draws the arrivals, is
 * fixed: it decides which array hosts the hottest Zipf objects, and
 * that array's load sets both the straggler of every epoch and the
 * response-time tail, so letting it vary would swamp the host-time
 * spread between runs.
 */
ClusterShape
clusterShape(const Settings &s)
{
    ClusterShape shape;
    ClusterConfig &c = shape.config;
    c.arrays = s.tiny ? 8 : 16;
    c.array.numDisks = kDisks;
    c.array.stripeUnits = 6;
    c.array.geometry = scaledGeometry(s.tiny ? 40 : 100);
    c.array.dataPlane = ec::DataPlaneMode::Off;
    c.objects = 100000;
    c.zipfAlpha = 0.9;
    c.requestsPerSec = s.tiny ? 200.0 : 250.0;
    c.readFraction = 0.7;
    c.epochSec = 0.25;
    c.seed = 1;
    shape.warmupSec = 2.0;
    shape.measureSec = s.tiny ? 40.0 : 1500.0;
    shape.rebuilds = s.tiny ? 2 : 8;
    shape.staggerSec = shape.measureSec / (shape.rebuilds + 1);
    const double offset =
        static_cast<double>(splitmix64(s.seed) % 1024) / 1024.0;
    shape.firstRebuildSec = shape.warmupSec + offset * shape.staggerSec;
    return shape;
}

int
clusterEpochs(const ClusterShape &shape)
{
    const double e = shape.config.epochSec;
    return static_cast<int>(std::ceil(shape.warmupSec / e - 1e-9)) +
           static_cast<int>(std::ceil(shape.measureSec / e - 1e-9));
}

/**
 * Wall probe for traced cluster passes: returns the host time like any
 * probe and also logs every stamp per thread. ClusterRunner calls it at
 * the start and at the end of each array advance, so a thread's stamps
 * pair up into that thread's advance spans.
 */
struct ProbeLog
{
    std::vector<double> stamps;
    bool mainThread = false;
};

std::mutex gProbeMu;
std::vector<std::unique_ptr<ProbeLog>> gProbeLogs;
std::atomic<int> gProbeGeneration{0};
std::thread::id gMainThread;
thread_local ProbeLog *tProbeLog = nullptr;
thread_local int tProbeGeneration = -1;

double
probeNow()
{
    const double t = nowSec();
    const int gen = gProbeGeneration.load(std::memory_order_relaxed);
    if (tProbeGeneration != gen) {
        std::lock_guard<std::mutex> lock(gProbeMu);
        gProbeLogs.push_back(std::make_unique<ProbeLog>());
        tProbeLog = gProbeLogs.back().get();
        tProbeLog->stamps.reserve(1 << 16);
        tProbeLog->mainThread = std::this_thread::get_id() == gMainThread;
        tProbeGeneration = gen;
    }
    tProbeLog->stamps.push_back(t);
    return t;
}

/** Install the probe where the runner offers the hook (a later
 * runner may trace its advances itself and drop it). */
template <typename Runner>
bool
installWallProbe(Runner &runner)
{
    if constexpr (requires(Runner &r) {
                      r.setWallProbe(std::function<double()>{});
                  }) {
        runner.setWallProbe(&probeNow);
        return true;
    } else {
        return false;
    }
}

/**
 * Turn the probe logs of one run into advance spans, grouped by epoch:
 * every advance of epoch e ends before any advance of epoch e+1 starts
 * (the barrier), so spans sorted by start fall into epochs of @p arrays
 * consecutive entries.
 */
void
collectAdvances(int arrays, int parentSpan, Tracer *tr, PassResult &out)
{
    std::vector<Span> spans;
    {
        std::lock_guard<std::mutex> lock(gProbeMu);
        int worker = 0;
        for (const auto &log : gProbeLogs) {
            const int thread = log->mainThread ? 0 : ++worker;
            for (std::size_t i = 0; i + 1 < log->stamps.size(); i += 2) {
                Span sp;
                sp.name = "advance";
                sp.start = log->stamps[i];
                sp.end = log->stamps[i + 1];
                sp.parent = parentSpan;
                sp.thread = thread;
                spans.push_back(sp);
            }
        }
        gProbeLogs.clear();
    }
    std::sort(spans.begin(), spans.end(),
              [](const Span &a, const Span &b) { return a.start < b.start; });
    const std::size_t n = static_cast<std::size_t>(arrays);
    if (n == 0 || spans.size() % n != 0)
        throw std::runtime_error("wall probe spans do not pair into "
                                 "whole epochs");
    double prevEnd = -1.0;
    for (std::size_t e = 0; e * n < spans.size(); ++e) {
        double first = spans[e * n].start;
        double last = 0.0;
        for (std::size_t i = e * n; i < (e + 1) * n; ++i) {
            spans[i].unit = static_cast<std::int64_t>(e);
            last = std::max(last, spans[i].end);
            out.advanceWall.push_back(spans[i].end - spans[i].start);
            if (tr)
                tr->add(spans[i]);
        }
        out.epochParallelSec.push_back(last - first);
        if (prevEnd >= 0.0)
            out.epochGapSec.push_back(first - prevEnd);
        prevEnd = last;
    }
}

PassResult
clusterRebuild(const Settings &s, const PassOptions &opt)
{
    PassResult out;
    Tracer *tr = opt.tracer;
    const ClusterShape shape = clusterShape(s);
    const int workers = opt.workers > 0 ? opt.workers : s.workers;
    out.epochs = clusterEpochs(shape);

    // Declared before the runner: the captured arrays' tracers write
    // into them until the runner is destroyed.
    std::vector<AccessRecord> accesses[2];
    UnitRecord rec;
    rec.count = out.epochs;
    const double t0 = nowSec();
    double c1 = processCpuSec();
    try {
        std::unique_ptr<ClusterRunner> runner;
        {
            SpanScope span(tr, "construct");
            runner = std::make_unique<ClusterRunner>(shape.config, workers);
        }
        const double t1 = nowSec();
        c1 = processCpuSec();
        rec.setupMs = (t1 - t0) * 1e3;
        scheduleRollingRebuilds(*runner, shape.rebuilds,
                                shape.firstRebuildSec, shape.staggerSec);
        ClusterTopology &topo = runner->topology();
        if (opt.capture) {
            for (int i = 0; i < 2; ++i)
                topo.array(i).controller().setAccessTracer(
                    recorder(accesses[i], 25 * kCaptureLimit));
        }
        bool probed = false;
        if (opt.wallProbe) {
            gMainThread = std::this_thread::get_id();
            gProbeGeneration.fetch_add(1);
            probed = installWallProbe(*runner);
        }
        ClusterResult res;
        int runSpan = -1;
        {
            SpanScope span(tr, "cluster_run");
            runSpan = tr ? tr->current() : -1;
            res = runner->run(shape.warmupSec, shape.measureSec);
        }
        const double t2 = nowSec();
        if (probed)
            collectAdvances(topo.arrays(), runSpan, tr, out);
        out.phaseHostSec = t2 - t1;
        rec.hostMs = (t2 - t1) * 1e3;
        rec.cpuMs = (processCpuSec() - c1) * 1e3;

        double reconSum = 0.0;
        int rebuilt = 0;
        double gapSum = 0.0;
        std::string perArray;
        for (int i = 0; i < topo.arrays(); ++i) {
            const EventQueue &eq = topo.array(i).eventQueue();
            out.events += eq.executed();
            gapSum += meanGapTicks(eq);
            const ArrayCensus &c =
                res.finalCensus[static_cast<std::size_t>(i)];
            const ReconReport *r = topo.array(i).rebuildReport();
            if (r) {
                reconSum += r->reconstructionTimeSec;
                ++rebuilt;
            }
            const PhaseSample ps = topo.array(i).samplePhase(res.measuredSec);
            perArray += fmt("array %d events=%" PRIu64 " qdepth=%" PRId64
                            " rebuilt=%" PRId64 " recon_s=%.6f ops=%" PRIu64
                            " mean_ms=%.6f p99_ms=%.6f\n",
                            i, eq.executed(), c.queueDepth, c.rebuiltUnits,
                            r ? r->reconstructionTimeSec : -1.0,
                            ps.reads + ps.writes, ps.meanMs(), ps.p99Ms());
            if (opt.capture)
                opt.capture->pendingDepths.push_back(
                    static_cast<double>(eq.pending()));
        }
        const ClusterCounters &k = res.counters;
        out.redirects = k.redirectsIn;
        out.modelReconSec = rebuilt ? reconSum / rebuilt : 0.0;
        out.modelRespP99Ms = res.phase.p99Ms();
        rec.output =
            fmt("iops=%.6f mean_ms=%.6f p99_ms=%.6f p999_ms=%.6f "
                "redirects=%" PRIu64 " rebuilds_done=%" PRIu64
                " rebuild_epochs=%" PRIu64 " max_qdepth=%" PRId64
                " reads=%" PRIu64 " writes=%" PRIu64 " events=%" PRIu64
                "\n",
                res.sustainedIops, res.phase.meanMs(), res.phase.p99Ms(),
                res.phase.p999Ms(), k.redirectsIn, k.rebuildsCompleted,
                k.rebuildingEpochs, k.maxQueueDepth, k.completedReads,
                k.completedWrites, res.events) +
            perArray;
        if (opt.capture) {
            for (int i = 0; i < 2; ++i)
                topo.array(i).controller().setAccessTracer(nullptr);
            opt.capture->meanEventGapTicks = gapSum / topo.arrays();
            const double bytes = static_cast<double>(
                topo.array(0).controller().layout().mappingTableBytes());
            opt.capture->tableBytes = bytes * topo.arrays();
            opt.capture->layouts.emplace_back(shape.config.array,
                                              topo.arrays());
            opt.capture->cluster = shape.config;
            opt.capture->clusterEpochs = out.epochs;
            opt.capture->clusterDataUnits = topo.dataUnitsPerArray();
            for (auto &a : accesses)
                opt.capture->sims.push_back(
                    {shape.config.array, std::move(a)});
        }
    } catch (const std::exception &e) {
        rec.error = e.what();
        rec.hostMs = (nowSec() - t0) * 1e3;
        rec.cpuMs = (processCpuSec() - c1) * 1e3;
    }
    out.units.push_back(std::move(rec));
    return out;
}

// ---------------------------------------------------------------- mttdl

struct MttdlShape
{
    std::vector<int> stripes{3, 6};
    /** Windows per stripe size. Unequal counts keep the median window
     * inside one G's group instead of on the boundary between them. */
    std::vector<int> windows{20, 12};
    double mtbfSimSec = 20000.0;
    double warmupSec = 1.0;
    /** Latent sector errors rare enough that most windows keep their
     * data, frequent enough that read-repair runs. */
    double latentErrorProb = 2e-7;
};

MttdlShape
mttdlShape(const Settings &s)
{
    MttdlShape shape;
    if (s.tiny)
        shape.windows = {3, 2};
    return shape;
}

/**
 * One failure→repair window, phase by phase through the public
 * ArraySimulation / ArrayController calls, so that construction, the
 * pre-failure warmup and the rebuild are timed separately. It performs
 * the same steps, in the same order and on the same RNG streams, as
 * declust::runFailureWindow.
 */
PassResult
mttdlVerify(const Settings &s, const PassOptions &opt)
{
    PassResult out;
    Tracer *tr = opt.tracer;
    const MttdlShape shape = mttdlShape(s);
    PhaseSample user;
    int windows = 0;
    double reconSum = 0.0;
    double gapSum = 0.0;
    std::int64_t id = 0;
    for (std::size_t gi = 0; gi < shape.stripes.size(); ++gi) {
        const int G = shape.stripes[gi];
        const int count = shape.windows[gi];
        SimConfig base;
        base.numDisks = kDisks;
        base.stripeUnits = G;
        base.geometry = scaledGeometry(s.tiny ? 120 : 949);
        base.accessesPerSec = 105.0;
        base.readFraction = 0.5;
        base.algorithm = ReconAlgorithm::Baseline;
        base.latentErrorProb = shape.latentErrorProb;
        base.dataPlane = opt.dataPlaneOff ? ec::DataPlaneMode::Off
                                          : ec::DataPlaneMode::Verify;
        if (opt.capture)
            opt.capture->layouts.emplace_back(base, count);
        const std::uint64_t gSeed = splitmix64(
            taggedSeed(s.seed, static_cast<std::uint64_t>(G) << 32));
        for (int w = 0; w < count; ++w, ++id) {
            SimConfig sc = base;
            sc.seed = splitmix64(
                taggedSeed(gSeed, static_cast<std::uint64_t>(w)));
            UnitRecord rec;
            SpanScope unitSpan(tr, "unit", id);
            const double u0 = nowSec();
            const double c0 = processCpuSec();
            std::vector<AccessRecord> accesses;
            bool fired = false;
            try {
                std::unique_ptr<ArraySimulation> sim;
                {
                    SpanScope span(tr, "construct", id);
                    sim = std::make_unique<ArraySimulation>(sc);
                }
                const double t1 = nowSec();
                rec.setupMs = (t1 - u0) * 1e3;
                EventQueue &eq = sim->eventQueue();
                ArrayController &ctl = sim->controller();
                if (opt.capture)
                    ctl.setAccessTracer(recorder(accesses, kCaptureLimit));
                Rng hazard(taggedSeed(sc.seed, 0x5ec0dfa1u));
                int first = 0;
                double tSecond = 0.0;
                {
                    SpanScope span(tr, "warmup", id);
                    sim->workload().start();
                    eq.runUntil(eq.now() + secToTicks(shape.warmupSec));
                    if (opt.capture)
                        opt.capture->pendingDepths.push_back(
                            static_cast<double>(eq.pending()));
                    sim->drain();
                    first = static_cast<int>(hazard.uniformInt(kDisks));
                    ctl.failDisk(first);
                    tSecond =
                        hazard.exponential(shape.mtbfSimSec / (kDisks - 1));
                    int second = static_cast<int>(
                        hazard.uniformInt(kDisks - 1));
                    if (second >= first)
                        ++second;
                    eq.scheduleIn(secToTicks(tSecond),
                                  [&ctl, second, &fired] {
                                      if (ctl.failedDisk() >= 0 &&
                                          ctl.secondFailedDisk() < 0 &&
                                          ctl.failedDisk() != second) {
                                          ctl.failSecondDisk(second);
                                          fired = true;
                                      }
                                  });
                }
                const double t2 = nowSec();
                ReconOutcome outcome;
                {
                    SpanScope span(tr, "recon", id);
                    outcome = sim->reconstruct();
                }
                const double t3 = nowSec();
                out.degradedHostSec += t2 - t1;
                out.reconHostSec += t3 - t2;

                const FaultStats &fs = ctl.faultStats();
                const PhaseSample sample = sim->samplePhase(
                    outcome.report.reconstructionTimeSec);
                mergePhase(user, sample, windows == 0);
                reconSum += outcome.totalRepairSec;
                ++windows;
                out.events += eq.executed();
                gapSum += meanGapTicks(eq);
                rec.output = fmt(
                    "G=%d window=%d first=%d second_failure=%d "
                    "data_loss=%d recon_s=%.6f unrecoverable=%" PRId64
                    " medium_errors=%" PRIu64 " sector_repairs=%" PRIu64
                    " p99_ms=%.6f events=%" PRIu64,
                    G, w, first, fired ? 1 : 0,
                    fs.dataLossEvents > 0 ? 1 : 0, outcome.totalRepairSec,
                    ctl.unrecoverableStripeCount(), fs.mediumErrors,
                    fs.sectorRepairs, sample.p99Ms(), eq.executed());
                if (opt.capture) {
                    ctl.setAccessTracer(nullptr);
                    opt.capture->tableBytes = std::max(
                        opt.capture->tableBytes,
                        static_cast<double>(
                            ctl.layout().mappingTableBytes()));
                    opt.capture->sims.push_back({sc, std::move(accesses)});
                }
            } catch (const std::exception &e) {
                rec.error = e.what();
            }
            rec.hostMs = (nowSec() - u0) * 1e3;
            rec.cpuMs = (processCpuSec() - c0) * 1e3;
            out.units.push_back(std::move(rec));
        }
    }
    out.phaseHostSec = out.degradedHostSec + out.reconHostSec;
    out.modelReconSec = windows ? reconSum / windows : 0.0;
    out.modelRespP99Ms = windows ? user.p99Ms() : 0.0;
    if (opt.capture && windows)
        opt.capture->meanEventGapTicks = gapSum / windows;
    return out;
}

} // namespace

std::int64_t
unitsPerPass(const Settings &s)
{
    if (s.workload == "recon_sweep")
        return static_cast<std::int64_t>(reconPoints(s.tiny).size());
    if (s.workload == "cluster_rebuild")
        return clusterEpochs(clusterShape(s));
    std::int64_t windows = 0;
    for (const int n : mttdlShape(s).windows)
        windows += n;
    return windows;
}

PassResult
runPass(const Settings &s, const PassOptions &opt)
{
    SpanScope span(opt.tracer, "pass");
    const double cpu0 = processCpuSec();
    const double t0 = nowSec();
    PassResult out;
    if (s.workload == "recon_sweep")
        out = reconSweep(s, opt);
    else if (s.workload == "cluster_rebuild")
        out = clusterRebuild(s, opt);
    else
        out = mttdlVerify(s, opt);
    out.wallSec = nowSec() - t0;
    out.cpuSec = processCpuSec() - cpu0;
    for (const UnitRecord &u : out.units)
        out.setupSec += u.setupMs / 1e3;
    return out;
}

} // namespace perfbench
