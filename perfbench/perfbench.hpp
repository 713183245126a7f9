/**
 * @file
 * Shared types of the repository benchmark driver (see run.py).
 *
 * The driver runs one workload in "passes": a pass is the whole batch
 * job (a sweep, a cluster run, a set of failure windows) and is built
 * from units, the workload's natural piece of work. Untraced passes
 * give the end-to-end metrics; one traced pass records spans around
 * every call into a library layer and captures the inputs the layer
 * rungs replay afterwards.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/topology.hpp"
#include "core/array_sim.hpp"
#include "disk/disk.hpp"

namespace perfbench {

/** Monotonic host time, seconds. */
inline double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** User + system CPU seconds of the whole process, all threads. */
double processCpuSec();
/** Peak resident set of the process so far, MB. */
double peakRssMb();

/** One traced interval of host time. */
struct Span
{
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span, -1 at the root. */
    int parent = -1;
    /** Unit id (sweep point, epoch or window), -1 when not per unit. */
    std::int64_t unit = -1;
    /** 0 = main thread; worker threads are numbered from 1. */
    int thread = 0;
};

/** In-memory span recorder; spans nest on the main thread. */
class Tracer
{
  public:
    int open(const char *name, std::int64_t unit = -1);
    void close(int span);
    /** Record a finished span under @p parent (spans from workers). */
    void add(const Span &span) { spans_.push_back(span); }
    /** Innermost open span, -1 when none. */
    int current() const { return stack_.empty() ? -1 : stack_.back(); }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Scoped span; a null tracer makes it a no-op. */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, const char *name, std::int64_t unit = -1)
        : tracer_(tracer), id_(tracer ? tracer->open(name, unit) : -1)
    {
    }
    ~SpanScope()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

/** Host-side outcome of one unit. */
struct UnitRecord
{
    /** Canonical text of what the unit produced (compared run to run). */
    std::string output;
    /** Host wall, process CPU and construction milliseconds per unit. */
    double hostMs = 0.0;
    double cpuMs = 0.0;
    double setupMs = 0.0;
    /** Units this record stands for (epochs share one cluster record). */
    std::int64_t count = 1;
    /** Exception text when the unit threw ("" = ran to completion). */
    std::string error;
};

/** One simulation's inputs the rungs replay, captured when traced. */
struct Capture
{
    /** Configuration whose layout the accesses were mapped through. */
    declust::SimConfig config;
    /** Disk accesses observed, in completion order (capped). */
    std::vector<declust::AccessRecord> accesses;
};

/** What a traced pass hands to the rungs. */
struct PassCapture
{
    std::vector<Capture> sims;
    /** Pending events in the workload's event cores at steady state. */
    std::vector<double> pendingDepths;
    /** Mean simulated time between dispatched events, ticks. */
    double meanEventGapTicks = 0.0;
    /** Layout constructions one pass performs, per distinct config. */
    std::vector<std::pair<declust::SimConfig, int>> layouts;
    /** Largest layout-table footprint alive at once, bytes. */
    double tableBytes = 0.0;

    /** Cluster only: the routed configuration and its epochs. */
    declust::ClusterConfig cluster;
    int clusterEpochs = 0;
    std::int64_t clusterDataUnits = 0;
};

/** Result of one pass of a workload. */
struct PassResult
{
    double wallSec = 0.0;
    double cpuSec = 0.0;
    double setupSec = 0.0;
    std::vector<UnitRecord> units;
    double modelReconSec = 0.0;
    double modelRespP99Ms = 0.0;
    std::uint64_t events = 0;
    /** Host seconds inside the simulation phase calls. */
    double phaseHostSec = 0.0;
    double degradedHostSec = 0.0;
    double reconHostSec = 0.0;

    /** Cluster only. */
    std::uint64_t redirects = 0;
    int epochs = 0;
    /** Per-(epoch, array) advance walls from the wall probe, if any. */
    std::vector<double> advanceWall;
    /** Parallel-phase wall of each epoch and the serial gaps between. */
    std::vector<double> epochParallelSec;
    std::vector<double> epochGapSec;
};

/** Everything that selects the work of one invocation. */
struct Settings
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Worker threads of cluster_rebuild. */
    int workers = 1;
    /** Small sizes for the benchmark's self-check. */
    bool tiny = false;
};

/** Per-pass switches; the defaults make an untraced timed pass. */
struct PassOptions
{
    /** Span recorder (null = no spans). */
    Tracer *tracer = nullptr;
    /** Rung input capture (null = none). */
    PassCapture *capture = nullptr;
    /** Cluster worker count override (0 = Settings::workers). */
    int workers = 0;
    /** Install the cluster wall probe (traced passes only). */
    bool wallProbe = false;
    /** mttdl_verify with the data plane off, for ec.verify_share. */
    bool dataPlaneOff = false;
};

/** Run one pass of s.workload. */
PassResult runPass(const Settings &s, const PassOptions &opt);

/** Number of units one pass of @p s attempts. */
std::int64_t unitsPerPass(const Settings &s);

/** Layer rungs: isolated timed calls fed from a traced pass. */
struct RungResult
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
    std::uint64_t checksum = 0;
};

/** Run every rung that applies to @p s, spanning each under @p tracer. */
std::vector<RungResult> runRungs(const Settings &s,
                                 const PassCapture &capture, Tracer &tracer);

} // namespace perfbench
