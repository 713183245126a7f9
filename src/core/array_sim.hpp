/**
 * @file
 * High-level experiment façade: builds a complete simulated array
 * (layout, disks, controller, workload) from one config structure and
 * orchestrates the phases the paper measures — fault-free steady state,
 * degraded mode, and on-line reconstruction.
 *
 * This is the public entry point examples and benches use; the phases
 * map one-to-one onto the paper's figures:
 *   runFaultFree()    -> figures 6-1/6-2 fault-free curves
 *   failAndRunDegraded() -> figures 6-1/6-2 degraded curves
 *   reconstruct()     -> figures 8-1..8-4, table 8-1
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "array/controller.hpp"
#include "array/types.hpp"
#include "core/reconstructor.hpp"
#include "core/scrubber.hpp"
#include "disk/geometry.hpp"
#include "ec/data_plane.hpp"
#include "layout/layout.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "stats/shard_merge.hpp"
#include "workload/synthetic.hpp"

namespace declust {

class HealthMonitor;

/** Everything needed to stand up one experiment. */
struct SimConfig
{
    /** Array width C. */
    int numDisks = 21;
    /** Parity stripe size G; G == numDisks selects left-symmetric
     * RAID 5, otherwise a block-design declustered layout. */
    int stripeUnits = 21;
    /** Disk geometry (use DiskGeometry::ibm0661Scaled to shrink runs). */
    DiskGeometry geometry = DiskGeometry::ibm0661Scaled(2);
    /** Head scheduler: fcfs | sstf | scan | cvscan. */
    std::string scheduler = "cvscan";

    /** Workload. */
    double accessesPerSec = 105.0;
    double readFraction = 0.5;
    int accessUnits = 1;

    /** Reconstruction engine. */
    ReconAlgorithm algorithm = ReconAlgorithm::Baseline;
    int reconProcesses = 1;
    Tick reconThrottle = 0;
    /** Strict user-over-reconstruction disk scheduling (section 9). */
    bool prioritizeUserIo = false;
    /**
     * Use a distributed-sparing layout: each parity stripe reserves a
     * spare unit (capacity cost 1/(G+1)) and reconstruction rebuilds
     * into the array instead of onto a replacement disk. Requires
     * stripeUnits + 1 < numDisks and a block design with k =
     * stripeUnits + 1 on numDisks disks.
     */
    bool distributedSparing = false;
    /** Stripe unit size in sectors (8 x 512 B = the paper's 4 KB). */
    int unitSectors = 8;
    /** Model the drives' track buffers (see Disk::enableTrackBuffer). */
    bool trackBuffer = false;
    /** Controller CPU cost per disk access, ms (0 = paper's model). */
    double controllerOverheadMs = 0.0;
    /** XOR cost per stripe unit combined, ms (0 = paper's model). */
    double xorOverheadMsPerUnit = 0.0;
    /**
     * Data-plane mode (ec/data_plane.hpp): off = value-level parity
     * math only (byte-identical to earlier builds), verify = real SIMD
     * byte math cross-checked at every combine with no timing change.
     * Defaults to the process-wide selection (--data-plane via
     * bench_common, ec::selectDataPlane()), so drivers need no
     * per-config plumbing.
     */
    ec::DataPlaneMode dataPlane = ec::defaultDataPlaneMode();
    /**
     * Delay between failure and replacement availability, seconds.
     * With an on-line spare pool this is ~0 (section 8: "repair time is
     * essentially reconstruction time"); order-and-swap service models
     * use hours. The array serves degraded traffic in the meantime.
     */
    double replacementDelaySec = 0.0;

    /**
     * Fault injection (src/disk/fault_model.hpp). Both rates at 0 (the
     * default) attaches no injector at all, keeping the fault-free
     * event schedule byte-identical to earlier builds.
     */
    /** Probability a sector carries a latent error when first read. */
    double latentErrorProb = 0.0;
    /** Per-access transient read-error probability. */
    double transientReadProb = 0.0;
    /** Re-read attempts before an access reports a medium error. */
    int faultMaxRetries = 3;

    /**
     * Gray-failure robustness knobs. All default-off: the defaults
     * attach no fail-slow model, no hedging, no scrubber, and no
     * health monitor, keeping every existing golden byte-identical.
     */
    /** Disk to degrade with the fail-slow fault mode (-1 = none). */
    int failSlowDisk = -1;
    /** Fail-slow service-time multiplier (>= 1; 1 = no slowdown). */
    double failSlowFactor = 1.0;
    /** Per-access probability of an intermittent fail-slow stall. */
    double failSlowStallProb = 0.0;
    /** Duration of each fail-slow stall, milliseconds. */
    double failSlowStallMs = 0.0;
    /** Per-read probability the fail-slow disk grows a latent defect. */
    double failSlowDefectProb = 0.0;
    /** Hedged-read deadline, ms (0 = hedging off). */
    double hedgeAfterMs = 0.0;
    /** Target duration of one full scrub pass, sec (0 = no scrubber). */
    double scrubIntervalSec = 0.0;
    /** Attach the per-disk gray-failure health monitor. */
    bool healthMonitor = false;
    /** Hot spares available to proactive retirement (retireDisk). */
    int hotSpares = 1;

    std::uint64_t seed = 1;

    /** Declustering ratio (G-1)/(C-1). */
    double alpha() const;
};

/** User response-time summary for one measured phase. */
struct PhaseStats
{
    double meanReadMs = 0.0;
    double meanWriteMs = 0.0;
    double meanMs = 0.0;
    double p90Ms = 0.0;
    /** Tail percentiles (0 when the phase recorded no samples). */
    double p99Ms = 0.0;
    double p999Ms = 0.0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /** Mean disk utilization over the phase. */
    double meanDiskUtilization = 0.0;
};

/** Outcome of a copyback phase (distributed sparing only). */
struct CopybackOutcome
{
    double copybackTimeSec = 0.0;
    std::int64_t unitsCopied = 0;
    /** User response times measured while copyback ran. */
    PhaseStats userDuringCopyback;
};

/** Outcome of a reconstruction phase. */
struct ReconOutcome
{
    ReconReport report;
    /** User response times measured while reconstruction ran. */
    PhaseStats userDuringRecon;
    /** Replacement delay + reconstruction time: the repair window that
     * enters the MTTDL computation. */
    double totalRepairSec = 0.0;
};

/**
 * The lifetime counters a measurement window does not clear (hedges,
 * scrub, sector repairs), as one window's share: where they stand now
 * minus where they stood when the window opened.
 */
struct WindowCounters
{
    HedgeStats hedges;
    ScrubStats scrub;
    std::uint64_t sectorRepairs = 0;
};

/** One simulated array with phase orchestration. */
class ArraySimulation
{
  public:
    explicit ArraySimulation(const SimConfig &config);
    ~ArraySimulation();

    ArraySimulation(const ArraySimulation &) = delete;
    ArraySimulation &operator=(const ArraySimulation &) = delete;

    /**
     * Run the workload fault-free: @p warmupSec discarded, then
     * @p measureSec measured. Returns user stats for the window.
     */
    PhaseStats runFaultFree(double warmupSec, double measureSec);

    /**
     * Drain, fail disk @p disk (default: disk 0), then run degraded:
     * warmup plus measured window as above.
     */
    PhaseStats failAndRunDegraded(double warmupSec, double measureSec,
                                  int disk = 0);

    /**
     * With a disk already failed, attach a replacement and reconstruct
     * to completion while the workload keeps running. Returns the
     * reconstruction report and user stats measured during it.
     */
    ReconOutcome reconstruct();

    /**
     * After a distributed-sparing reconstruction, install a fresh
     * replacement and copy every remapped unit back from its spare
     * while the workload keeps running.
     */
    CopybackOutcome copyback();

    /** Stop arrivals and run until every queue drains. */
    void drain();

    /**
     * Cluster-mode repair hooks (src/cluster). The cluster layer feeds
     * the controller open-loop arrivals of its own and advances the
     * event core in epochs, so it needs the fail / rebuild primitives
     * without the phase orchestration (and without drain(), which stops
     * the synthetic workload this array is not using).
     */
    /**
     * Step the event core until in-flight user work completes, then
     * fail @p disk. Arrivals already scheduled for later ticks stay
     * queued and are served degraded.
     */
    void failDiskForRebuild(int disk);
    /**
     * Start rebuilding the failed disk. The sweep is event-driven: it
     * progresses as the event core advances and interleaves with user
     * traffic, potentially across many epochs. Completion is observable
     * through rebuildActive() / rebuildReport().
     */
    void beginRebuild();
    /** True while a rebuild started by beginRebuild() is running. */
    bool rebuildActive() const;
    /** Report of the last completed rebuild (nullptr before that). */
    const ReconReport *rebuildReport() const;

    /**
     * Proactively retire @p disk onto a hot spare before it hard-fails
     * (the health monitor's Retired verdict is the usual trigger).
     * Consumes one spare (ConfigError when the pool is empty), drains,
     * fails the disk, and reconstructs to completion while the workload
     * keeps running — the same repair path as reconstruct(), entered on
     * the array's schedule instead of the failure's.
     */
    ReconOutcome retireDisk(int disk);

    /**
     * Mergeable snapshot of the current measured phase: the raw user
     * accumulators/histogram plus mean disk utilization weighted by
     * @p windowSec (the phase's measured length). Sharded benches
     * sample each shard with this and fold the samples with
     * PhaseSample::merge; its reductions match what the PhaseStats of
     * an unsharded run would report.
     */
    PhaseSample samplePhase(double windowSec) const;

    ArrayController &controller() { return *controller_; }
    const ArrayController &controller() const { return *controller_; }
    EventQueue &eventQueue() { return eq_; }
    const EventQueue &eventQueue() const { return eq_; }
    SyntheticWorkload &workload() { return *workload_; }
    const SimConfig &config() const { return config_; }

    /** Scrubber, when scrubIntervalSec > 0 (else nullptr). */
    Scrubber *scrubber() { return scrubber_.get(); }
    /** Health monitor, when healthMonitor is set (else nullptr). */
    HealthMonitor *healthMonitor() { return health_.get(); }
    const HealthMonitor *healthMonitor() const { return health_.get(); }
    /** Hot spares not yet consumed by retireDisk(). */
    int sparesLeft() const { return sparesLeft_; }

    /**
     * Open a measurement window: clear the user and per-disk
     * statistics and note where the lifetime counters stand, so that
     * windowCounters() reports this window's share alone. Every phase
     * above calls it when its measured window starts.
     */
    void resetStats();

    /** Hedge, scrub and sector-repair counts since resetStats(). */
    WindowCounters windowCounters() const;

  private:
    PhaseStats collectPhase() const;
    ReconOutcome runReconstruction();
    /** The lifetime counters as they stand now. */
    WindowCounters lifetimeCounters() const;

    SimConfig config_;
    EventQueue eq_;
    std::unique_ptr<ArrayController> controller_;
    std::unique_ptr<SyntheticWorkload> workload_;
    std::unique_ptr<Scrubber> scrubber_;
    std::unique_ptr<HealthMonitor> health_;
    /** Event-driven rebuild owned across epochs (cluster mode). */
    std::unique_ptr<Reconstructor> rebuild_;
    int sparesLeft_ = 0;
    /** lifetimeCounters() when the current window opened. */
    WindowCounters windowStart_;
};

/**
 * Construct the layout a SimConfig describes (left-symmetric for
 * G == C, block-design declustered otherwise). Exposed for tests and
 * for tools that inspect layouts without running a simulation. Throws
 * ConfigError on a unit size below one sector or beyond the disk, and on
 * a sparing G with G + 1 >= C or no exact (C, G + 1) design.
 */
std::unique_ptr<Layout> makeLayout(int numDisks, int stripeUnits,
                                   const DiskGeometry &geometry,
                                   int unitSectors = 8,
                                   bool distributedSparing = false);

} // namespace declust
