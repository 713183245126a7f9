#include "disk/disk.hpp"

#include <utility>

#include "disk/fault_model.hpp"
#include "disk/geometry.hpp"
#include "disk/scheduler.hpp"
#include "disk/seek_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "stats/perf_counters.hpp"
#include "util/annotations.hpp"
#include "util/error.hpp"
#include "util/fastdiv.hpp"
#include "util/validate.hpp"

namespace declust {

Disk::Disk(EventQueue &eq, const DiskGeometry &geometry,
           std::unique_ptr<Scheduler> scheduler, int id,
           std::unique_ptr<Scheduler> backgroundScheduler)
    : Disk(eq, geometry, std::make_shared<const SeekModel>(geometry),
           std::move(scheduler), id, std::move(backgroundScheduler))
{
}

Disk::Disk(EventQueue &eq, const DiskGeometry &geometry,
           std::shared_ptr<const SeekModel> seekModel,
           std::unique_ptr<Scheduler> scheduler, int id,
           std::unique_ptr<Scheduler> backgroundScheduler)
    : eq_(eq),
      geometry_(geometry),
      seekModel_(std::move(seekModel)),
      scheduler_(std::move(scheduler)),
      backgroundScheduler_(std::move(backgroundScheduler)),
      id_(id)
{
    geometry_.validate();
    DECLUST_ASSERT(seekModel_, "disk needs a seek model");
    DECLUST_ASSERT(scheduler_, "disk needs a scheduler");
    revTicks_ = geometry_.revolutionTicks();
    secTicks_ = geometry_.sectorTicks();
    revDiv_ = FastDiv(static_cast<std::uint32_t>(revTicks_));
    util_.resetWindow(eq_.now());
}

void
Disk::submit(DiskRequest request)
{
    DECLUST_ASSERT(request.sectorCount > 0, "empty transfer");
    DECLUST_ASSERT(request.startSector >= 0 &&
                       request.startSector + request.sectorCount <=
                           geometry_.totalSectors(),
                   "disk ", id_, ": transfer [", request.startSector, ",+",
                   request.sectorCount, ") out of range");
    DECLUST_ASSERT(request.onComplete, "request needs a callback");

    if (failed_) {
        // A dead disk serves nothing: the request still completes (the
        // issuing flow must be able to make progress), but only via a
        // zero-delay event carrying DiskFailed — never inline, so the
        // caller's "completion is asynchronous" assumption holds.
        void (*cb)(void *, IoStatus) = request.onComplete;
        void *ctx = request.ctx;
        eq_.scheduleIn(0, [cb, ctx] { cb(ctx, IoStatus::DiskFailed); });
        return;
    }

    int slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<int>(pending_.size());
        DECLUST_ANALYZE_SUPPRESS(
            "hot-path-growth: slot-vector warm-up; the free list recycles "
            "slots once the queue depth plateaus");
        pending_.emplace_back();
    }
    Pending &p = pending_[static_cast<std::size_t>(slot)];
    p.request = request;
    p.chs = geometry_.lbaToChs(request.startSector);
    p.enqueued = eq_.now();
    p.live = true;
    p.status = IoStatus::Ok;
#if DECLUST_VALIDATE
    // The decode must land strictly inside the geometry; a bad decode
    // here would silently skew every downstream seek/rotate time.
    DECLUST_VALIDATE_CHECK(
        p.chs.cylinder >= 0 && p.chs.cylinder < geometry_.cylinders &&
            p.chs.track >= 0 && p.chs.track < geometry_.tracksPerCyl &&
            p.chs.sector >= 0 && p.chs.sector < geometry_.sectorsPerTrack,
        "disk ", id_, ": LBA ", request.startSector,
        " decoded outside the geometry (cyl ", p.chs.cylinder, ", track ",
        p.chs.track, ", sector ", p.chs.sector, ")");
#endif

    // An idle disk with nothing queued would pop exactly this request:
    // start it without a round trip through the scheduler.
    if (!busy_ && scheduler_->empty() &&
        (!backgroundScheduler_ || backgroundScheduler_->empty())) {
        startService(slot);
        return;
    }
    Scheduler &queue =
        (backgroundScheduler_ && p.request.priority == Priority::Background)
            ? *backgroundScheduler_
            : *scheduler_;
    queue.push(SchedEntry{slot, p.chs.cylinder, p.enqueued});
    dispatch();
}

std::size_t
Disk::queueDepth() const
{
    return scheduler_->size() +
           (backgroundScheduler_ ? backgroundScheduler_->size() : 0);
}

void
Disk::dispatch()
{
    if (busy_)
        return;
    // Background requests are serviced only when no user request waits.
    Scheduler *queue = nullptr;
    if (!scheduler_->empty())
        queue = scheduler_.get();
    else if (backgroundScheduler_ && !backgroundScheduler_->empty())
        queue = backgroundScheduler_.get();
    if (!queue)
        return;

    const SchedEntry entry = queue->pop(headCylinder_, direction_);
    const auto slot = static_cast<int>(entry.id);
    DECLUST_ASSERT(slot >= 0 &&
                       slot < static_cast<int>(pending_.size()) &&
                       pending_[static_cast<std::size_t>(slot)].live,
                   "scheduler returned unknown id");
    startService(slot);
}

void
Disk::startService(int slot)
{
    busy_ = true;
    util_.setBusy(eq_.now());

    const Tick dispatched = eq_.now();
    Pending &p = pending_[static_cast<std::size_t>(slot)];
    Tick end = computeServiceEnd(p.request, dispatched, p.chs);
    if (faultModel_ && !p.request.isWrite) {
        // The error model decides the outcome at dispatch so retries can
        // be charged as service time (one full revolution per re-read).
        const FaultModel::ReadOutcome fo = faultModel_->onRead(
            p.request.startSector, p.request.sectorCount);
        end += static_cast<Tick>(fo.extraRevolutions) * revTicks_;
        p.status = fo.status;
    } else if (faultModel_) {
        // Writes never fail (short of whole-disk death) but do retire
        // any defective sectors they cover.
        faultModel_->onWrite(p.request.startSector,
                             p.request.sectorCount);
    }
    if (faultModel_ && faultModel_->failSlow()) {
        // Gray failure: the whole access (including any retry
        // revolutions charged above) is served slower by a constant
        // factor, and the drive intermittently stalls.
        const FaultModel::SlowOutcome so =
            faultModel_->onSlowAccess(p.request.isWrite);
        const Tick service = end - dispatched;
        end = dispatched +
              static_cast<Tick>(static_cast<double>(service) *
                                faultModel_->serviceSlowdown()) +
              msToTicks(so.stallMs);
    }
#if DECLUST_VALIDATE
    // Service must take non-negative time and leave the head parked on
    // a real cylinder; either failing means the timing model (seek
    // curve, rotational phase, skew) produced garbage for this access.
    DECLUST_VALIDATE_CHECK(end >= dispatched, "disk ", id_,
                           ": negative service time for sector ",
                           p.request.startSector, " (+",
                           p.request.sectorCount, "): end ", end,
                           " < dispatch ", dispatched);
    DECLUST_VALIDATE_CHECK(headCylinder_ >= 0 &&
                               headCylinder_ < geometry_.cylinders,
                           "disk ", id_, ": head parked on cylinder ",
                           headCylinder_, " of ", geometry_.cylinders,
                           " after servicing sector ",
                           p.request.startSector);
#endif
    eq_.scheduleAt(end, [this, slot, dispatched] {
        complete(slot, dispatched);
    });
}

void
Disk::complete(int slot, Tick dispatched)
{
    DECLUST_ASSERT(slot >= 0 &&
                       slot < static_cast<int>(pending_.size()) &&
                       pending_[static_cast<std::size_t>(slot)].live,
                   "completion for unknown request");
    Pending done = pending_[static_cast<std::size_t>(slot)];
    pending_[static_cast<std::size_t>(slot)].live = false;
    DECLUST_ANALYZE_SUPPRESS(
        "hot-path-growth: bounded by pending_.size(); capacity is retained, so "
        "steady state never allocates");
    freeSlots_.push_back(slot);

    const Tick now = eq_.now();
    DECLUST_VALIDATE_CHECK(now >= dispatched, "disk ", id_,
                           ": completion at tick ", now,
                           " precedes its dispatch at ", dispatched);
    DECLUST_PERF_INC(DiskCompletions);
    DECLUST_PERF_HIST(DiskQueueTicks, dispatched - done.enqueued);
    DECLUST_PERF_HIST(DiskServiceTicks, now - dispatched);
    stats_.serviceTicks += now - dispatched;
    stats_.queueTicks += dispatched - done.enqueued;
    if (done.request.isWrite)
        ++stats_.writes;
    else
        ++stats_.reads;

    busy_ = false;
    util_.setIdle(now);

    // A disk that died while this transfer was in service reports the
    // failure, whatever the fault model decided at dispatch.
    const IoStatus status =
        failed_ ? IoStatus::DiskFailed : done.status;

    if (tracer_) {
        AccessRecord record;
        record.disk = id_;
        record.startSector = done.request.startSector;
        record.sectorCount = done.request.sectorCount;
        record.isWrite = done.request.isWrite;
        record.priority = done.request.priority;
        record.enqueued = done.enqueued;
        record.dispatched = dispatched;
        record.completed = now;
        record.status = status;
        tracer_(record);
    }

    // The callback may submit more work to this disk; submit() will start
    // it immediately since we are idle, and the trailing dispatch() below
    // then finds the disk busy and backs off harmlessly.
    done.request.onComplete(done.request.ctx, status);
    dispatch();
}

void
Disk::fail()
{
    DECLUST_ASSERT(!failed_, "disk ", id_, " already failed");
    failed_ = true;
    // Queued (not yet dispatched) requests complete now with DiskFailed;
    // they never reach the head, so no service time is charged. The
    // request in service (if any) completes at its scheduled time and
    // picks up DiskFailed in complete().
    drainQueueFailed(*scheduler_);
    if (backgroundScheduler_)
        drainQueueFailed(*backgroundScheduler_);
}

void
Disk::beginFailSlow(const FailSlowConfig &slow)
{
    if (failed_)
        DECLUST_FATAL("disk ", id_,
                      " has hard-failed; fail-slow needs a live disk");
    if (!faultModel_)
        DECLUST_FATAL("disk ", id_,
                      " has no fault model; attach one before enabling "
                      "fail-slow");
    faultModel_->beginFailSlow(slow);
}

void
Disk::replace()
{
    DECLUST_ASSERT(failed_, "disk ", id_, " is not failed");
    DECLUST_ASSERT(!busy_ && outstanding() == 0,
                   "disk ", id_, " still has in-flight completions");
    failed_ = false;
}

void
Disk::drainQueueFailed(Scheduler &queue)
{
    while (!queue.empty()) {
        const SchedEntry entry = queue.pop(headCylinder_, direction_);
        const auto slot = static_cast<int>(entry.id);
        DECLUST_ASSERT(slot >= 0 &&
                           slot < static_cast<int>(pending_.size()) &&
                           pending_[static_cast<std::size_t>(slot)].live,
                       "scheduler returned unknown id");
        eq_.scheduleIn(0, [this, slot] { completeFailed(slot); });
    }
}

void
Disk::completeFailed(int slot)
{
    DECLUST_ASSERT(slot >= 0 &&
                       slot < static_cast<int>(pending_.size()) &&
                       pending_[static_cast<std::size_t>(slot)].live,
                   "completion for unknown request");
    const Pending done = pending_[static_cast<std::size_t>(slot)];
    pending_[static_cast<std::size_t>(slot)].live = false;
    DECLUST_ANALYZE_SUPPRESS(
        "hot-path-growth: bounded by pending_.size(); capacity is retained, so "
        "steady state never allocates");
    freeSlots_.push_back(slot);
    done.request.onComplete(done.request.ctx, IoStatus::DiskFailed);
}

Tick
Disk::rotationalWait(int slot, Tick t) const
{
    const Tick slotStart = static_cast<Tick>(slot) * secTicks_;
    const Tick phase = revDiv_.rem64(static_cast<std::int64_t>(t));
    // slotStart < rev and rev - phase <= rev, so one subtraction wraps.
    const Tick wait = slotStart + revTicks_ - phase;
    const Tick result = wait >= revTicks_ ? wait - revTicks_ : wait;
    DECLUST_VALIDATE_CHECK(result >= 0 && result < revTicks_, "disk ",
                           id_, ": rotational wait ", result,
                           " outside [0, ", revTicks_,
                           ") for sector slot ", slot);
    return result;
}

void
Disk::enableTrackBuffer(double hitServiceMs)
{
    DECLUST_ASSERT(hitServiceMs > 0, "buffer hit time must be positive");
    trackBufferEnabled_ = true;
    trackBufferHitTicks_ = msToTicks(hitServiceMs);
}

Tick
Disk::computeServiceEnd(const DiskRequest &request, Tick start, Chs chs)
{
    if (trackBufferEnabled_) {
        const Chs last = geometry_.lbaToChs(request.startSector +
                                            request.sectorCount - 1);
        const std::int64_t firstTrack = geometry_.absoluteTrack(chs);
        const std::int64_t lastTrack = geometry_.absoluteTrack(last);
        if (!request.isWrite && firstTrack == lastTrack &&
            firstTrack == bufferedTrack_) {
            // Whole read served from the buffer: no head movement.
            DECLUST_PERF_INC(TrackBufferHits);
            return start + trackBufferHitTicks_;
        }
        if (request.isWrite) {
            // Write-through invalidates a buffered copy of any track
            // the transfer touches.
            if (bufferedTrack_ >= firstTrack && bufferedTrack_ <= lastTrack)
                bufferedTrack_ = -1;
        } else {
            // The drive read-ahead leaves the last track read buffered.
            bufferedTrack_ = lastTrack;
        }
    }

    // Seek to the target cylinder.
    const int distance = std::abs(chs.cylinder - headCylinder_);
    Tick t = start + seekModel_->seekTicks(distance);
    if (chs.cylinder != headCylinder_) {
        direction_ = chs.cylinder > headCylinder_ ? SeekDirection::Up
                                                  : SeekDirection::Down;
    }
    headCylinder_ = chs.cylinder;

    // Transfer track by track. Head switches within a cylinder are free
    // (the 4-sector skew covers them); cylinder crossings pay a
    // single-cylinder seek before the rotational wait.
    int remaining = request.sectorCount;
    while (remaining > 0) {
        t += rotationalWait(geometry_.physicalSlot(chs), t);
        const int onTrack = std::min(
            remaining, geometry_.sectorsPerTrack - chs.sector);
        t += static_cast<Tick>(onTrack) * secTicks_;
        remaining -= onTrack;
        if (remaining == 0)
            break;
        chs.sector = 0;
        if (++chs.track == geometry_.tracksPerCyl) {
            chs.track = 0;
            ++chs.cylinder;
            DECLUST_ASSERT(chs.cylinder < geometry_.cylinders,
                           "transfer ran off the disk");
            t += seekModel_->seekTicks(1);
            headCylinder_ = chs.cylinder;
        }
    }
    return t;
}

double
Disk::utilization() const
{
    return util_.utilization(eq_.now());
}

void
Disk::resetStats()
{
    stats_ = DiskStats{};
    util_.resetWindow(eq_.now());
}

} // namespace declust
