/**
 * @file
 * The RAID striping driver: maps user requests onto disk accesses under
 * a parity layout, in fault-free, degraded, and reconstructing states.
 *
 * Behaviour follows the paper exactly:
 *  - fault-free reads are one disk access; fault-free writes are a
 *    four-access read-modify-write (no caching, no combined
 *    read-modify-write arm timing), except G = 3 stripes which use the
 *    three-access reconstruct-write (section 6);
 *  - with a failed disk, reads of lost units reconstruct on the fly
 *    (G-1 reads); writes to lost data units fold into the parity unit;
 *    writes whose parity unit is lost update only the data (section 7);
 *  - with a replacement disk attached, the four reconstruction
 *    algorithms of section 8 decide what user work is sent to it.
 *
 * Every parity-mutating flow runs under a per-stripe lock, and the
 * simulated contents (64-bit value per unit, parity = XOR of data) are
 * checked against a shadow model on every user read.
 *
 * Internally each operation is a pooled IoOp continuation record (see
 * array/io_op.hpp) stepped through static continuation functions, so
 * steady-state user I/O performs no heap allocation: no lambda-capture
 * std::functions, no waiter queues, no per-request callback boxing.
 * Two chains carry the parity math (DESIGN.md): the regenerate chain
 * rebuilds one unit from its stripe's survivors for the five read-side
 * flows, and the write chain runs every single-unit write as a plan
 * (read-modify-write, reconstruct-write, mirrored, parity-lost,
 * degraded fold, write-through) over one fork → combine → fork →
 * commit sequence. The whole-stripe large write keeps its own step.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "array/contents.hpp"
#include "array/io_op.hpp"
#include "array/stripe_lock.hpp"
#include "array/types.hpp"
#include "disk/disk.hpp"
#include "disk/fault_model.hpp"
#include "disk/geometry.hpp"
#include "disk/scheduler.hpp"
#include "ec/data_plane.hpp"
#include "layout/layout.hpp"
#include "sim/event_queue.hpp"
#include "sim/serial_resource.hpp"
#include "sim/slab_pool.hpp"
#include "sim/time.hpp"
#include "stats/accumulator.hpp"
#include "stats/histogram.hpp"
#include "util/annotations.hpp"

namespace declust {

/** Array-level configuration independent of the layout. */
struct ArrayParams
{
    DiskGeometry geometry = DiskGeometry::ibm0661();
    /** Head scheduler name: fcfs | sstf | scan | cvscan. */
    std::string scheduler = "cvscan";
    /** Sectors per stripe unit (8 x 512 B = the paper's 4 KB unit). */
    int unitSectors = 8;
    /** Seed for the written-value generator. */
    std::uint64_t valueSeed = 0xc0ffee;
    /**
     * Give user requests strict priority over reconstruction requests
     * at every disk (paper section 9's prioritization future work).
     */
    bool prioritizeUserIo = false;
    /**
     * Model the drives' track buffers (off by default: the paper's
     * simulator did not credit them either; see Disk::enableTrackBuffer).
     */
    bool trackBuffer = false;
    /**
     * Controller CPU cost charged before each disk access is issued,
     * milliseconds (default 0 = the paper's free-controller assumption;
     * section 9 flags CPU overhead as unmodeled, citing Chervenak &
     * Katz's RAID-prototype bottleneck measurements). When either
     * overhead is non-zero the controller CPU is modeled as a single
     * serial resource, so heavy recovery traffic can saturate it.
     */
    double controllerOverheadMs = 0.0;
    /**
     * XOR-engine cost per stripe unit combined, milliseconds. Charged
     * on the same serial controller CPU between the read and write
     * phases of any parity computation (read-modify-write, on-the-fly
     * reconstruction, rebuild cycles).
     */
    double xorOverheadMsPerUnit = 0.0;
    /**
     * Data-plane mode (see ec/data_plane.hpp). Off: value-level parity
     * math only, byte-identical to the pre-data-plane goldens. Verify:
     * every parity combine additionally XORs real stripe-unit buffers
     * through the dispatched SIMD kernels and cross-checks the result
     * against the 64-bit shadow value — no effect on simulated time.
     */
    ec::DataPlaneMode dataPlane = ec::DataPlaneMode::Off;
    /**
     * Hedged-read deadline, milliseconds (0 = hedging off, the
     * default; negative throws ConfigError). When positive, a plain
     * user read that has not completed within this deadline launches a
     * parity-reconstruct read — the G-1 survivor reads a degraded read
     * would perform — racing the slow disk; whichever side delivers
     * first wins, deterministically. The declustered layout makes the
     * race cheap: the reconstruct fan-out touches only G-1 of the
     * other disks, spread by the block design.
     */
    double hedgeAfterMs = 0.0;
    /** Response-time histogram range (ms) and bucket count. */
    double histogramLimitMs = 4000.0;
    std::size_t histogramBuckets = 4000;
};

/**
 * Hedged-read accounting, monotonic over the controller's lifetime
 * (like FaultStats; resetStats() does not clear it). Every launched
 * hedge ends exactly one way: the hedge delivers the value (win), the
 * primary delivers first and the hedge work is discarded (wasted), or
 * the chain aborts because the stripe lost a survivor (neither counter;
 * the read resolves through the primary or the loss path).
 */
struct HedgeStats
{
    std::uint64_t launched = 0;
    std::uint64_t wins = 0;
    std::uint64_t wasted = 0;
};

/**
 * Fault-path accounting: what the controller observed and what it had
 * to give up on. Monotonic over the controller's lifetime (resetStats()
 * does not clear it — a trial's loss record must survive measurement
 * windows).
 */
struct FaultStats
{
    /** Disk completions that reported an unrecovered medium error. */
    std::uint64_t mediumErrors = 0;
    /** Disk completions that reported whole-disk failure. */
    std::uint64_t diskFailedIos = 0;
    /** Units whose home read failed but whose value was regenerated
     * from parity (and rewritten when the home sector was remapped). */
    std::uint64_t sectorRepairs = 0;
    /** Parity stripes recorded as unrecoverable (some data is gone). */
    std::uint64_t unrecoverableStripes = 0;
    /** Distinct loss causes: each surviving-disk error that killed at
     * least one stripe, and each second whole-disk failure. */
    std::uint64_t dataLossEvents = 0;
    /** User reads completed without valid data. */
    std::uint64_t userReadsLost = 0;
    /** User writes that could not be applied. */
    std::uint64_t userWritesLost = 0;
    /** Failed-disk units reconstruction had to abandon. */
    std::uint64_t reconUnitsLost = 0;
};

/** User-visible response-time statistics. */
struct UserStats
{
    Accumulator readMs;
    Accumulator writeMs;
    Accumulator allMs;
    Histogram allHist;
    std::uint64_t readsDone = 0;
    std::uint64_t writesDone = 0;

    UserStats(double limitMs, std::size_t buckets)
        : allHist(limitMs, buckets) {}
};

/** The striping driver plus its disks. */
class ArrayController
{
  public:
    /**
     * @param eq Event queue driving the simulation.
     * @param layout Parity layout; its unitsPerDisk must equal the
     *        geometry's capacity in units.
     * @param params Array parameters.
     */
    ArrayController(EventQueue &eq, std::unique_ptr<Layout> layout,
                    const ArrayParams &params);

    ArrayController(const ArrayController &) = delete;
    ArrayController &operator=(const ArrayController &) = delete;

    /** @{ Topology accessors. */
    int numDisks() const { return layout_->numDisks(); }
    int stripeWidth() const { return layout_->stripeWidth(); }
    int unitsPerDisk() const { return layout_->unitsPerDisk(); }
    std::int64_t numDataUnits() const { return layout_->numDataUnits(); }
    const Layout &layout() const { return *layout_; }
    Disk &disk(int i) { return *disks_[static_cast<std::size_t>(i)]; }
    const Disk &disk(int i) const
    {
        return *disks_[static_cast<std::size_t>(i)];
    }
    EventQueue &eventQueue() { return eq_; }
    /** @} */

    // ------------------------------------------------------------------
    // User I/O
    // ------------------------------------------------------------------

    /** Read one data unit; @p done runs when the data is available. */
    DECLUST_HOT_PATH
    void readUnit(std::int64_t dataUnit, std::function<void()> done);

    /** Write one data unit with fresh contents. */
    DECLUST_HOT_PATH
    void writeUnit(std::int64_t dataUnit, std::function<void()> done);

    /**
     * Multi-unit accesses decompose per parity stripe; in the fault-free
     * state a write covering a whole stripe's data uses the large-write
     * optimization (criterion 5): G parallel writes, no pre-reads.
     */
    DECLUST_HOT_PATH
    void readUnits(std::int64_t firstDataUnit, int count,
                   std::function<void()> done);
    DECLUST_HOT_PATH
    void writeUnits(std::int64_t firstDataUnit, int count,
                    std::function<void()> done);

    /** User operations submitted but not yet completed. */
    std::int64_t outstandingUserOps() const { return outstanding_; }

    /** True when no user ops are in flight and all disks are idle. */
    bool quiescent() const;

    // ------------------------------------------------------------------
    // Failure and recovery control
    // ------------------------------------------------------------------

    /**
     * Fail @p disk, losing its contents. Requires a quiescent array (the
     * benches drain in-flight work first; the failure transient itself
     * is outside the paper's scope). Misuse — a bad id, a disk already
     * failed, spare units still remapped, an active copyback, or a
     * non-quiescent array — throws ConfigError (a defined error path,
     * not a panic).
     */
    void failDisk(int disk);

    /**
     * Fail a second disk while the first is still being repaired — the
     * data-loss path of the paper's MTTDL argument. Unlike failDisk()
     * this needs no quiescence: in-flight and queued accesses to the
     * dying disk complete with IoStatus::DiskFailed, every parity
     * stripe that now misses two units is recorded as unrecoverable
     * (one data-loss event for the batch), and the array keeps serving
     * everything else. Reconstruction, if running, skips the doomed
     * stripes and completes. Misuse (no first failure, same disk,
     * third failure, active copyback) throws ConfigError.
     */
    void failSecondDisk(int disk);

    /** The second failed disk (-1 if none). */
    int secondFailedDisk() const { return secondFailedDisk_; }

    /** Fault-path accounting (never reset; see FaultStats). */
    const FaultStats &faultStats() const { return faultStats_; }

    /** Hedged-read accounting (never reset; see HedgeStats). */
    const HedgeStats &hedgeStats() const { return hedgeStats_; }

    /** True when hedged reads are armed (hedgeAfterMs > 0). */
    bool hedging() const { return hedgeTicks_ > 0; }

    /** Stripes recorded as unrecoverable so far. */
    std::int64_t unrecoverableStripeCount() const
    {
        return static_cast<std::int64_t>(
            faultStats_.unrecoverableStripes);
    }

    /** True if @p stripe has been recorded as unrecoverable. */
    bool stripeUnrecoverable(std::int64_t stripe) const
    {
        return anyUnrecoverable_ &&
               unrecoverable_[static_cast<std::size_t>(stripe)] != 0;
    }

    /** Failed-disk units abandoned as unrecoverable during the current
     * reconstruction (reset when a replacement is attached). */
    std::int64_t reconLostUnits() const { return reconLostCount_; }

    /**
     * Attach per-disk error injectors (latent sector errors, transient
     * read errors) built from @p config; each disk gets an independent
     * stream derived from config.seed and its id. Call before the
     * workload starts. With no injector attached the controller's I/O
     * paths are bit-identical to the pre-fault-layer behaviour.
     */
    void attachFaultModels(const FaultConfig &config);

    /**
     * Switch @p disk into fail-slow (gray failure) mode per @p slow.
     * Requires attached fault models (they supply the mode's RNG
     * stream) and a disk that has not hard-failed; misuse throws
     * ConfigError.
     */
    void beginFailSlow(int disk, const FailSlowConfig &slow);

    /**
     * Scrub one unit: a background-priority verify read of stripe
     * @p stripe's unit at position @p pos (its current physical
     * location). A clean read completes the cycle immediately; a
     * medium error triggers a parity repair under the stripe lock —
     * G-1 background survivor reads, XOR, rewrite to the remapped home
     * sector — draining the latent defect. Scrub I/O never touches
     * user response-time statistics. Targeting a unit whose disk has
     * hard-failed throws ConfigError (the rebuild machinery owns dead
     * disks; the Scrubber skips them).
     */
    void scrubUnit(std::int64_t stripe, int pos,
                   std::function<void(CycleResult)> done);

    /**
     * Attach a blank replacement for the failed disk and select the
     * reconstruction algorithm. Reconstruction itself is driven by
     * calling reconstructOffset() (see core/Reconstructor).
     */
    void attachReplacement(ReconAlgorithm algorithm);

    /**
     * Begin rebuilding the failed disk into the layout's distributed
     * spare units instead of onto a replacement disk (requires a layout
     * with hasSpareUnits()). Reconstruction writes then scatter across
     * all surviving disks. After finishReconstruction() the rebuilt
     * units stay *remapped* to their spares until copyback.
     */
    void attachDistributedSpare(ReconAlgorithm algorithm);

    /** True if rebuilt units currently live in spare locations. */
    bool spareRemapActive() const { return remapActive_; }

    /** The disk whose units are remapped to spares (-1 if none). */
    int remappedDisk() const { return remapDisk_; }

    /**
     * Copy one remapped unit from its spare back to a fresh replacement
     * disk (beginCopyback() must have run). @p done receives true if a
     * unit was copied, false if the offset needed no copy.
     */
    void copybackOffset(int offset, std::function<void(bool)> done);

    /** Install a blank replacement for the remapped disk (copyback). */
    void beginCopyback();

    /** All units copied back: clear the remap, verify, return healthy. */
    void finishCopyback();

    /** Units still living in spare locations. */
    std::int64_t remappedCount() const { return remappedCount_; }

    /**
     * Run one reconstruction cycle for the failed disk's unit at
     * @p offset: under the stripe lock, read the G-1 surviving units,
     * XOR, write the result to the replacement. Skips unmapped or
     * already-reconstructed units.
     */
    DECLUST_HOT_PATH
    void reconstructOffset(int offset,
                           std::function<void(CycleResult)> done);

    /**
     * Declare reconstruction complete (all mapped units reconstructed),
     * verify the replacement's contents against parity and shadow, and
     * return the array to the fault-free state.
     */
    void finishReconstruction();

    int failedDisk() const { return failedDisk_; }
    bool reconstructing() const { return reconActive_; }
    ReconAlgorithm reconAlgorithm() const { return algorithm_; }

    /** Mapped (reconstructible) units on the failed disk. */
    std::int64_t unitsToReconstruct() const { return mappedOnFailed_; }

    /** Units reconstructed so far (by sweep or by user write-through). */
    std::int64_t reconstructedCount() const { return reconstructedCount_; }

    /** True if the failed disk's unit at @p offset has valid contents. */
    bool isReconstructed(int offset) const;

    /**
     * How many parity stripes would become unrecoverable if
     * @p secondDisk failed right now: stripes with a unit on
     * @p secondDisk whose failed-disk unit is still lost. Requires a
     * failed disk; decays to ~0 as reconstruction completes (the
     * vulnerability-window view of section 2's reliability argument).
     */
    std::int64_t unrecoverableStripesIf(int secondDisk) const;

    // ------------------------------------------------------------------
    // Statistics and verification
    // ------------------------------------------------------------------

    const UserStats &userStats() const { return stats_; }
    StripeLockTable &stripeLocks() { return locks_; }

    /** Controller CPU utilization (0 when overheads are disabled). */
    double cpuUtilization() const
    {
        return cpu_ ? cpu_->utilization() : 0.0;
    }

    /** Active data-plane mode. */
    ec::DataPlaneMode dataPlane() const { return params_.dataPlane; }

    /** Data-plane counters (all zero when the plane is off). */
    ec::DataPlane::Stats dataPlaneStats() const
    {
        return plane_ ? plane_->stats() : ec::DataPlane::Stats{};
    }

    /**
     * Simulated controller-CPU ticks charged for XORing @p units stripe
     * units: units x the per-unit tick cost, which is msToTicks of
     * xorOverheadMsPerUnit (modes off/verify) or of the calibrated
     * throughput-derived ms/unit (mode on). The basis is explicitly
     * per-unit — rounding happens once, in the per-unit constant — so
     * the charge is additive across batches: charging a G-1-unit
     * combine equals charging G-1 single units, and calibrated
     * constants plug in without double-charging.
     */
    Tick xorChargeTicks(int units) const
    {
        return static_cast<Tick>(units) * xorTicksPerUnit_;
    }

    /** Install an access tracer on every disk (null to disable). */
    void setAccessTracer(AccessTracer tracer);

    /** Clear user and per-disk statistics (start of measurement window). */
    void resetStats();

    /**
     * Assert full contents consistency. Requires quiescence. In the
     * healthy state checks that every stripe XORs to zero and every data
     * unit matches the shadow; with a failed disk checks surviving units
     * only. Throws InternalError on violation.
     */
    void verifyConsistency() const;

  private:
    /** The continuation steps live in controller.cpp. */
    friend struct IoSteps;

    /** Pooled carrier for a disk request issued through the serial
     * controller CPU (the CPU-overhead path must not copy the request
     * through a lambda capture). */
    struct DeferredIssue
    {
        ArrayController *ctl;
        int disk;
        DiskRequest req;
#if DECLUST_VALIDATE
        /** Pool generation at allocation, checked before the deferred
         * submit runs (catches a carrier freed or reused in flight). */
        std::uint32_t gen;
#endif
    };

    /** dataUnit of a user op that targets no single unit (the parent
     * of a multi-unit request, a whole-stripe part). */
    static constexpr std::int64_t kNoUnit = -1;

    /**
     * Acquire a user op of @p kind, a part of @p parent (null for a
     * stand-alone op or a parent), with its response clock started. A
     * @p dataUnit other than kNoUnit is located: its stripe unit and
     * the placements of its data and parity.
     */
    IoOp *userOp(RequestKind kind, IoOp *parent, std::int64_t dataUnit);

    /** Issue a one-unit disk access; @p cb(@p ctx, status) runs on
     * completion. */
    void issueUnit(const PhysicalUnit &pu, bool isWrite,
                   void (*cb)(void *, IoStatus), void *ctx,
                   Priority priority = Priority::Normal);

    /** Run @p fn(@p ctx) after the XOR engine combines @p units units. */
    void afterXor(int units, void (*fn)(void *), void *ctx);

    /** True if this unit's contents are lost (failed and not rebuilt,
     * on the second failed disk, or abandoned as unrecoverable). */
    bool unitLost(const PhysicalUnit &pu) const;

    /** True if every unit of @p stripe except position @p excludePos is
     * readable, i.e. the excluded unit can be regenerated from parity. */
    bool stripeRecoverableExcept(std::int64_t stripe,
                                 int excludePos) const;

    /** Record @p stripe as unrecoverable; true if newly recorded (the
     * caller decides whether that constitutes a data-loss event). */
    bool markStripeUnrecoverable(std::int64_t stripe);

    /** Mark the failed disk's unit at @p offset as abandoned (never to
     * be rebuilt); keeps the reconstruction accounting balanced. */
    void markReconstructionLost(int offset);

    /**
     * Where stripe @p stripe's unit at @p pos physically lives right
     * now: its layout location, unless that unit has been rebuilt into
     * (or remains remapped to) the stripe's spare unit.
     */
    PhysicalUnit effectiveUnit(std::int64_t stripe, int pos) const;

    /** Destination a rebuilt unit is written to: the replacement disk
     * (dedicated sparing) or the stripe's spare unit (distributed). */
    PhysicalUnit rebuildTarget(std::int64_t stripe, int offset) const;

    /** Shared tail of attachReplacement/attachDistributedSpare. */
    void attachCommon(ReconAlgorithm algorithm);

    /** XOR of the stored values of stripe @p stripe except position
     * @p excludePos (pass -1 to include all positions). With the data
     * plane enabled the same combine is replayed over real stripe-unit
     * buffers and cross-checked (see ec/data_plane.hpp). */
    UnitValue xorStripeExcept(std::int64_t stripe, int excludePos) const;

    /** Data-plane hook for combines not expressed via xorStripeExcept:
     * byte-verify that XOR of @p count values at @p vals equals
     * @p expected. No-op when the plane is off. */
    void checkCombine(const char *site, const UnitValue *vals, int count,
                      UnitValue expected) const
    {
        if (plane_)
            plane_->checkCombine(site, vals, count, expected);
    }

    /** Most input values a byte-checked combine can carry (bounds the
     * gather arrays on the combine paths' stacks). */
    static constexpr int kMaxCheckedStripeWidth = 64;

    void markReconstructed(int offset);

    EventQueue &eq_;
    std::unique_ptr<Layout> layout_;
    ArrayParams params_;

    std::vector<std::unique_ptr<Disk>> disks_;
    /** Serial controller CPU; null when overheads are disabled. */
    std::unique_ptr<SerialResource> cpu_;
    /** Real-bytes data plane; null in mode Off (the default), so the
     * off path pays one pointer test per combine. */
    std::unique_ptr<ec::DataPlane> plane_;
    /** Per-unit XOR charge, fixed at construction (see xorChargeTicks). */
    Tick xorTicksPerUnit_ = 0;
    ArrayContents contents_;
    ShadowModel shadow_;
    ValueSource values_;
    StripeLockTable locks_;
    IoOpPool ops_;
    SlabPool deferredPool_{sizeof(DeferredIssue), 64};

    int failedDisk_ = -1;
    /** Second concurrent whole-disk failure (-1 if none). */
    int secondFailedDisk_ = -1;
    bool reconActive_ = false;
    /** Rebuilding into distributed spares rather than a replacement. */
    bool distributedSpare_ = false;
    ReconAlgorithm algorithm_ = ReconAlgorithm::Baseline;
    /** Per-offset rebuild state of the failed disk: kNotRebuilt,
     * kRebuilt, or kLostForever (see the constants in controller.cpp). */
    std::vector<std::uint8_t> reconstructed_;
    std::int64_t reconstructedCount_ = 0;
    /** Failed-disk units abandoned as unrecoverable. */
    std::int64_t reconLostCount_ = 0;
    std::int64_t mappedOnFailed_ = 0;

    /** Per-stripe unrecoverable flags; allocated on first loss so the
     * fault-free path pays one bool test. */
    std::vector<std::uint8_t> unrecoverable_;
    bool anyUnrecoverable_ = false;
    FaultStats faultStats_;

    /** Hedged-read deadline in ticks (0 = off). */
    Tick hedgeTicks_ = 0;
    /** Hedged ops whose pooled record is still alive (a deadline timer
     * or hedge chain may outlive the user-visible completion); drains
     * to zero before the array is quiescent. */
    std::int64_t hedgedLive_ = 0;
    HedgeStats hedgeStats_;

    /** Post-reconstruction spare remap (distributed sparing only). */
    bool remapActive_ = false;
    int remapDisk_ = -1;
    std::int64_t remappedCount_ = 0;
    bool copybackActive_ = false;

    std::int64_t outstanding_ = 0;
    UserStats stats_;
};

} // namespace declust
