/**
 * @file
 * Event-driven model of a single disk drive.
 *
 * Models every significant component of an access (paper section 5):
 * queueing under a pluggable head scheduler, seek time from the calibrated
 * seek curve, rotational latency against a continuously spinning platter,
 * and per-sector transfer including track-skew-aware track and cylinder
 * crossings. Disks are deliberately not "work-preserving": a request's
 * cost depends on the head/rotation state its predecessors left behind,
 * which is the effect the paper shows the analytic model misses.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "disk/fault_model.hpp"
#include "disk/geometry.hpp"
#include "disk/scheduler.hpp"
#include "disk/seek_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "stats/utilization.hpp"
#include "util/annotations.hpp"
#include "util/fastdiv.hpp"

namespace declust {

/**
 * One I/O request against a disk.
 *
 * Completion is a raw continuation slot — onComplete(ctx, status) fires
 * once when the transfer finishes (status is IoStatus::Ok unless a
 * fault model is attached or the disk has failed) — so submitting a
 * request never allocates and requests copy as plain data through the
 * in-flight slot table. Callers with a callable instead of a function
 * pointer can use the boxing submit() overload below.
 */
struct DiskRequest
{
    std::int64_t startSector = 0;
    int sectorCount = 0;
    bool isWrite = false;
    /** Scheduling class; Background yields to Normal when the disk has
     * priority separation enabled. */
    Priority priority = Priority::Normal;
    /** Invoked (once) as onComplete(ctx, status) at completion. */
    void (*onComplete)(void *, IoStatus) = nullptr;
    void *ctx = nullptr;
};

/** One completed access, as seen by an access tracer. */
struct AccessRecord
{
    int disk = 0;
    std::int64_t startSector = 0;
    int sectorCount = 0;
    bool isWrite = false;
    Priority priority = Priority::Normal;
    Tick enqueued = 0;
    Tick dispatched = 0;
    Tick completed = 0;
    /** Completion outcome (what the request's callback receives). */
    IoStatus status = IoStatus::Ok;
};

/** Callback invoked at the completion of every traced access. */
using AccessTracer = std::function<void(const AccessRecord &)>;

/**
 * Aggregate per-disk statistics: exact integer tick sums over completed
 * accesses (two adds per completion). Response time is service plus
 * queue time, so its sum is not kept separately.
 */
struct DiskStats
{
    Tick serviceTicks = 0; ///< sum of dispatch -> completion
    Tick queueTicks = 0;   ///< sum of submit -> dispatch
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    std::uint64_t completions() const { return reads + writes; }
    /** Mean dispatch -> completion time (0 with no completions). */
    double meanServiceMs() const { return meanMs(serviceTicks); }
    /** Mean submit -> dispatch time (0 with no completions). */
    double meanQueueMs() const { return meanMs(queueTicks); }
    /** Mean submit -> completion time (0 with no completions). */
    double meanResponseMs() const
    {
        return meanMs(serviceTicks + queueTicks);
    }

  private:
    double
    meanMs(Tick sum) const
    {
        const std::uint64_t n = completions();
        return n == 0 ? 0.0 : ticksToMs(sum) / static_cast<double>(n);
    }
};

/** Simulated disk drive. */
class Disk
{
  public:
    /**
     * @param eq Owning event queue (must outlive the disk).
     * @param geometry Validated geometry.
     * @param scheduler Queue discipline (takes ownership).
     * @param id Identifier used in diagnostics.
     * @param backgroundScheduler Optional second queue for
     *        Priority::Background requests; when null, background
     *        requests share the primary queue (no prioritization).
     */
    Disk(EventQueue &eq, const DiskGeometry &geometry,
         std::unique_ptr<Scheduler> scheduler, int id,
         std::unique_ptr<Scheduler> backgroundScheduler = nullptr);

    /**
     * As above, but sharing @p seekModel (built for @p geometry) with
     * the other disks of an array instead of building its own table.
     */
    Disk(EventQueue &eq, const DiskGeometry &geometry,
         std::shared_ptr<const SeekModel> seekModel,
         std::unique_ptr<Scheduler> scheduler, int id,
         std::unique_ptr<Scheduler> backgroundScheduler = nullptr);

    Disk(const Disk &) = delete;
    Disk &operator=(const Disk &) = delete;

    /** Enqueue a request; completion is signalled via its callback. */
    DECLUST_HOT_PATH
    void submit(DiskRequest request);

    /**
     * Convenience overload boxing an arbitrary callable into the raw
     * continuation slot (one heap allocation per call — tests and
     * one-off flows only; the controller's hot path uses the slot
     * directly). The callable may take the completion IoStatus or
     * nothing at all (callers indifferent to errors).
     */
    template <typename F,
              typename = std::enable_if_t<
                  std::is_invocable_r_v<void, std::decay_t<F> &> ||
                  std::is_invocable_r_v<void, std::decay_t<F> &,
                                        IoStatus>>>
    void
    submit(DiskRequest request, F &&onComplete)
    {
        using Fn = std::decay_t<F>;
        DECLUST_ANALYZE_SUPPRESS(
            "hot-path-alloc: boxing overload for tests and one-off "
            "flows; the controller's hot path fills the raw "
            "continuation slot directly");
        auto boxed = std::make_unique<Fn>(std::forward<F>(onComplete));
        request.onComplete = [](void *ctx, IoStatus status) {
            std::unique_ptr<Fn> owned(static_cast<Fn *>(ctx));
            if constexpr (std::is_invocable_v<Fn &, IoStatus>) {
                (*owned)(status);
            } else {
                (void)status;
                (*owned)();
            }
        };
        request.ctx = boxed.get();
        submit(request);
        // The completion path owns the callable once submit accepts it
        // (validation failures throw before this line).
        boxed.release(); // NOLINT(bugprone-unused-return-value)
    }

    int id() const { return id_; }
    const DiskGeometry &geometry() const { return geometry_; }
    const SeekModel &seekModel() const { return *seekModel_; }

    /** True while a request is being serviced. */
    bool busy() const { return busy_; }

    /** Requests waiting in queue (excluding the one in service). */
    std::size_t queueDepth() const;

    /** In-service plus queued requests. */
    std::size_t outstanding() const
    {
        return queueDepth() + (busy_ ? 1 : 0);
    }

    /** True if this disk separates background from user requests. */
    bool hasPrioritySeparation() const
    {
        return backgroundScheduler_ != nullptr;
    }

    const DiskStats &stats() const { return stats_; }

    /** Busy fraction since the last resetStats(). */
    double utilization() const;

    /** Clear statistics and start a new utilization window now. */
    void resetStats();

    /**
     * Install an access tracer invoked at every completion (null to
     * disable). Tracing is an observer: it never alters timing.
     */
    void setTracer(AccessTracer tracer) { tracer_ = std::move(tracer); }

    /**
     * Enable the drive's track buffer (the IBM 0661 had one; the paper
     * mentions reading "all sectors on our disks into their track
     * buffers"). Model: the most recently *read* track stays buffered;
     * a read wholly within it is served from the buffer in
     * @p hitServiceMs without moving the head. Writes to the buffered
     * track invalidate it (write-through).
     */
    void enableTrackBuffer(double hitServiceMs = 0.5);

    /**
     * Attach an error injector (null detaches). Without one the disk
     * performs no RNG draws and no extra work, so fault-free results
     * are byte-identical to a build without the fault layer.
     */
    void setFaultModel(std::unique_ptr<FaultModel> model)
    {
        faultModel_ = std::move(model);
    }

    /** The attached error injector, or null. */
    FaultModel *faultModel() { return faultModel_.get(); }

    /**
     * Switch this disk into fail-slow (gray failure) mode: every
     * access is served slower, with intermittent stalls and escalating
     * latent defects per @p slow. Requires an attached fault model
     * (which supplies the mode's RNG stream) and a disk that has not
     * hard-failed — a dead disk cannot be slow.
     */
    void beginFailSlow(const FailSlowConfig &slow);

    /**
     * Fail the whole disk now. Queued requests complete immediately
     * with IoStatus::DiskFailed (a dead disk serves nothing); the
     * request in service, if any, completes at its scheduled time but
     * also reports DiskFailed. Later submits complete with DiskFailed
     * after a zero-delay event (never inline, preserving the "completion
     * is always asynchronous" contract).
     */
    void fail();

    /** True once fail() has been called. */
    bool failed() const { return failed_; }

    /** Swap in a fresh drive for a failed disk: clears the failed flag
     * (head state carries over; the model does not care). The disk must
     * be idle — a dead disk completes everything immediately, so it is
     * once its zero-delay completions have drained. */
    void replace();

  private:
    void dispatch();
    /** Put the request in @p slot under the head now; the caller has
     * chosen it (scheduler pop, or the idle fast path in submit). */
    void startService(int slot);
    void complete(int slot, Tick dispatched);
    void completeFailed(int slot);
    void drainQueueFailed(Scheduler &queue);

    /**
     * Compute the completion time of @p request starting service at
     * @p start, updating the head position. Pure function of the head
     * and rotation state. @p chs is the decoded start address, cached
     * at submit time so the LBA decode runs once per request.
     */
    Tick computeServiceEnd(const DiskRequest &request, Tick start,
                           Chs chs);

    /** Ticks until the rotational slot @p slot next starts, at time t. */
    Tick rotationalWait(int slot, Tick t) const;

    EventQueue &eq_;
    DiskGeometry geometry_;
    std::shared_ptr<const SeekModel> seekModel_;
    std::unique_ptr<Scheduler> scheduler_;
    std::unique_ptr<Scheduler> backgroundScheduler_;
    int id_;

    // Head state.
    int headCylinder_ = 0;
    SeekDirection direction_ = SeekDirection::None;

    bool busy_ = false;

    /**
     * In-flight requests live in slots; the slot index doubles as the
     * id circulated through the scheduler and the completion event.
     * A slot is recycled only after its completion runs, so an id can
     * never resolve to the wrong request.
     */
    struct Pending
    {
        DiskRequest request;
        Chs chs; ///< decoded start address, computed once at submit
        Tick enqueued = 0;
        bool live = false;
        /** Outcome decided at dispatch by the fault model (Ok without
         * one); failure of the whole disk overrides at completion. */
        IoStatus status = IoStatus::Ok;
    };
    std::vector<Pending> pending_;
    std::vector<std::int32_t> freeSlots_;

    // Geometry timing constants, cached to keep double->Tick conversion
    // out of the per-sector service loop.
    Tick revTicks_ = 0;
    Tick secTicks_ = 0;
    FastDiv revDiv_; // reciprocal for the rotational phase computation

    DiskStats stats_;
    UtilizationTracker util_;
    AccessTracer tracer_;

    /** Error injector; null = perfect disk (the default). */
    std::unique_ptr<FaultModel> faultModel_;
    bool failed_ = false;

    // Track buffer state (disabled unless enableTrackBuffer()).
    bool trackBufferEnabled_ = false;
    Tick trackBufferHitTicks_ = 0;
    std::int64_t bufferedTrack_ = -1;
};

} // namespace declust
