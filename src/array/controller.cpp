#include "array/controller.hpp"

#include <utility>

#include "array/io_op.hpp"
#include "array/stripe_lock.hpp"
#include "array/types.hpp"
#include "disk/disk.hpp"
#include "disk/fault_model.hpp"
#include "disk/scheduler.hpp"
#include "disk/seek_model.hpp"
#include "ec/data_plane.hpp"
#include "layout/layout.hpp"
#include "sim/event_queue.hpp"
#include "sim/serial_resource.hpp"
#include "sim/time.hpp"
#include "stats/perf_counters.hpp"
#include "util/annotations.hpp"
#include "util/error.hpp"
#include "util/validate.hpp"

namespace declust {

namespace {

/** Rebuild state of one failed-disk offset (values of reconstructed_). */
constexpr std::uint8_t kNotRebuilt = 0;
constexpr std::uint8_t kRebuilt = 1;
/** Abandoned: a surviving unit of its stripe was lost, so the unit can
 * never be regenerated. Counts as "handled" for sweep accounting. */
constexpr std::uint8_t kLostForever = 2;

/** @{ Hedge state bits (IoOp::hedgeFlags; see IoSteps hedge* flows). */
/** Deadline timer scheduled; the op is a hedged read. */
constexpr std::uint8_t kHedgeArmed = 1;
/** The parity-reconstruct race has been launched. */
constexpr std::uint8_t kHedgeLaunched = 2;
/** The primary disk read has completed (either way). */
constexpr std::uint8_t kHedgePrimaryDone = 4;
/** The user-visible completion has been delivered (exactly once). */
constexpr std::uint8_t kHedgeResolved = 8;
/** The primary flow has asked to recycle the op (holds pending). */
constexpr std::uint8_t kHedgeMainDone = 16;
/** The hedge chain aborted without delivering a value. */
constexpr std::uint8_t kHedgeFailed = 32;
/** The hedge chain has fully unwound (its hold was dropped). */
constexpr std::uint8_t kHedgeEnded = 64;
/** @} */

/** @{ Write-plan bits (IoOp::writePlan; see IoSteps::writeLocked). */
/** The new data goes to the data unit's home (dst0). */
constexpr std::uint8_t kWriteData = 1;
/** ... in phase A, beside the reads (reconstruct-write). */
constexpr std::uint8_t kWriteDataFirst = 2;
/** Phase A reads the old data and the old parity. */
constexpr std::uint8_t kWriteReadOld = 4;
/** Phase A reads the stripe's other data units. */
constexpr std::uint8_t kWriteReadOthers = 8;
/** Phase B writes the new parity (op->aux) to its home (dst1). */
constexpr std::uint8_t kWriteParity = 16;
/** Phase B writes the new data to its rebuild target (dst2). */
constexpr std::uint8_t kWriteThrough = 32;
/** @} */

} // namespace

const char *
toString(ReconAlgorithm algorithm)
{
    switch (algorithm) {
      case ReconAlgorithm::Baseline:          return "baseline";
      case ReconAlgorithm::UserWrites:        return "user-writes";
      case ReconAlgorithm::Redirect:          return "redirect";
      case ReconAlgorithm::RedirectPiggyback: return "redir+piggyback";
    }
    return "?";
}

// ----------------------------------------------------------------------
// The continuation spine.
//
// Every flow below is a hand-rolled state machine over a pooled IoOp:
// each step is a plain function whose context is the op itself, so
// stepping a request never allocates. Fork/join is the op's `pending`
// counter; the stripe lock resumes the op through its intrusive Waiter
// base. The step order, issueUnit order, and values_.fresh() call
// points replicate the original lambda-based flows exactly — the event
// schedule (and therefore every published bench table) is unchanged.
// ----------------------------------------------------------------------

struct IoSteps
{
    static IoOp *
    fromWaiter(StripeLockTable::Waiter *w)
    {
        return static_cast<IoOp *>(w);
    }

    /**
     * Recover the op from a continuation context. Validation builds
     * trip on two lifetime bugs here: a continuation firing on an op
     * that was released (its ctl field reads back as pool poison), and
     * one whose memory is no longer a live chunk of its controller's
     * pool. With validation off this is exactly the old static_cast.
     */
    static IoOp *
    fromCtx(void *ctx)
    {
        IoOp *op = static_cast<IoOp *>(ctx);
#if DECLUST_VALIDATE
        DECLUST_VALIDATE_CHECK(op != nullptr,
                               "continuation fired with a null op");
        DECLUST_VALIDATE_CHECK(!looksPoisoned(op->ctl),
                               "continuation fired on a released IoOp at ",
                               ctx, " (pool poison in op->ctl)");
        DECLUST_VALIDATE_CHECK(op->ctl && op->ctl->ops_.isLive(op),
                               "continuation fired on an IoOp that is "
                               "not live in its controller's pool (", ctx,
                               ")");
#endif
        return op;
    }

    /** Record user response-time statistics for a finished op. */
    static void
    userStats(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        const Tick elapsed = c.eq_.now() - op->start;
        const double ms = ticksToMs(elapsed);
        if (op->kind == RequestKind::Read) {
            DECLUST_PERF_HIST(UserReadTicks, elapsed);
            c.stats_.readMs.add(ms);
            ++c.stats_.readsDone;
        } else {
            DECLUST_PERF_HIST(UserWriteTicks, elapsed);
            c.stats_.writeMs.add(ms);
            ++c.stats_.writesDone;
        }
        c.stats_.allMs.add(ms);
        c.stats_.allHist.add(ms);
        --c.outstanding_;
    }

    /** Complete a user-visible op: stats, recycle, then notify. */
    static void
    finishUserOp(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        userStats(op);
        DECLUST_ANALYZE_SUPPRESS(
            "hot-path-function: moves the caller-provided completion "
            "closure out of the op before recycling it — a move, not "
            "an allocating conversion");
        std::function<void()> done = std::move(op->done);
        c.ops_.release(op);
        if (done)
            done();
    }

    /** A leaf part's flow ended: stand-alone ops complete the user op;
     * parts of a multi-unit request signal their parent. */
    static void
    finishPart(IoOp *op)
    {
        IoOp *parent = op->parent;
        if (!parent) {
            finishUserOp(op);
            return;
        }
        op->ctl->ops_.release(op);
        if (--parent->pending == 0)
            finishUserOp(parent);
    }

    /** The user-visible side of a part is done but the op itself lives
     * on (piggyback background write). Detaches the part. */
    static void
    userPartDone(IoOp *op)
    {
        IoOp *parent = op->parent;
        if (parent) {
            op->parent = nullptr;
            if (--parent->pending == 0)
                finishUserOp(parent);
            return;
        }
        userStats(op);
        DECLUST_ANALYZE_SUPPRESS(
            "hot-path-function: moves the caller-provided completion "
            "closure; a move, not an allocating conversion");
        std::function<void()> done = std::move(op->done);
        if (done)
            done();
    }

    // ------------------------------------------------------------------
    // Fault accounting
    // ------------------------------------------------------------------

    /** Fold one disk completion status into the op's phase accumulator
     * and the controller's fault counters. */
    static void
    noteStatus(IoOp *op, IoStatus status)
    {
        if (status == IoStatus::Ok)
            return;
        ArrayController &c = *op->ctl;
        if (status == IoStatus::MediumError)
            ++c.faultStats_.mediumErrors;
        else
            ++c.faultStats_.diskFailedIos;
        op->status = worseStatus(op->status, status);
    }

    /** Record @p stripe as unrecoverable, bumping the data-loss event
     * count if this stripe is a fresh loss. */
    static void
    loseStripe(ArrayController &c, std::int64_t stripe)
    {
        if (c.markStripeUnrecoverable(stripe))
            ++c.faultStats_.dataLossEvents;
    }

    /** A user read hit an unrecoverable stripe: complete it as lost
     * (no data transfer is modeled; the caller sees the completion and
     * the controller counts the failed read). */
    static void
    finishLostRead(IoOp *op, bool locked)
    {
        ArrayController &c = *op->ctl;
        ++c.faultStats_.userReadsLost;
        if (locked)
            c.locks_.release(op->su.stripe);
        finishPart(op);
    }

    /** A user write could not be applied consistently (its stripe is or
     * became unrecoverable). Contents and shadow stay untouched. */
    static void
    finishLostWrite(IoOp *op, bool locked)
    {
        ArrayController &c = *op->ctl;
        ++c.faultStats_.userWritesLost;
        if (locked)
            c.locks_.release(op->su.stripe);
        finishPart(op);
    }

    // ------------------------------------------------------------------
    // The stripe lock
    // ------------------------------------------------------------------

    /** Run @p step once @p op holds its stripe's lock: at once when the
     * lock is free, else from lockResumed when the holder hands it on. */
    static void
    lockThen(IoOp *op, LockStep step)
    {
        ArrayController &c = *op->ctl;
        op->lockStep = step;
        op->resume = &lockResumed;
        op->mid = c.eq_.now();
        if (c.locks_.acquire(op->su.stripe, op))
            runLocked(op);
    }

    static void
    lockResumed(StripeLockTable::Waiter *w)
    {
        IoOp *op = fromWaiter(w);
        DECLUST_PERF_HIST(LockWaitTicks, op->ctl->eq_.now() - op->mid);
        runLocked(op);
    }

    static void
    runLocked(IoOp *op)
    {
        switch (op->lockStep) {
          case LockStep::Write:      writeLocked(op); return;
          case LockStep::LargeWrite: largeWriteStep(op); return;
          case LockStep::Regenerate: regenLocked(op); return;
          case LockStep::Copyback:   copybackLocked(op); return;
        }
    }

    // ------------------------------------------------------------------
    // The regenerate chain
    //
    // A degraded read, a read-repair, a hedged read, a reconstruction
    // cycle and a scrub repair all regenerate one unit the same way:
    // under the stripe lock, read the stripe's G-1 surviving units and
    // XOR them (the paper's on-the-fly reconstruction, and the read
    // phase of a rebuild cycle). regenerate() runs that one chain:
    //
    //   lock → settled? → recoverable? → started → G-1 survivor reads
    //   → settled? → all Ok? → afterXor(G-1) → settled? → still
    //   recoverable? → op->v = xorStripeExcept → tail
    //
    // What differs is the flow's (IoOp::regen): its checks before the
    // lock stay in its entry function, and the regen* hooks below
    // dispatch to its own exits (settled), counters (started), loss
    // handler (lost) and tail, which verifies the value and then
    // rewrites the home, writes the rebuild target, piggybacks, or
    // resolves the hedge. Every hook runs with the stripe lock held;
    // whichever one ends the op releases it.
    // ------------------------------------------------------------------

    /** Where the chain stands when it consults a hook. */
    enum class Stage : std::uint8_t
    {
        Locked,   ///< lock granted, survivor reads not yet issued
        Read,     ///< every survivor read has completed
        Combined, ///< the XOR charge has been paid
    };

    /** Regenerate the unit at op->su (stripe, position) for @p flow. */
    static void
    regenerate(IoOp *op, RegenFlow flow)
    {
        op->regen = flow;
        lockThen(op, LockStep::Regenerate);
    }

    static void
    regenLocked(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        if (regenSettled(op, Stage::Locked))
            return;
        // Re-check under the lock: a second failure (or a survivor
        // loss) may have landed before or while this op waited.
        if (c.stripeUnrecoverable(op->su.stripe) ||
            !c.stripeRecoverableExcept(op->su.stripe, op->su.pos)) {
            regenLost(op, Stage::Locked);
            return;
        }
        regenStarted(op);
        // Reconstruction and scrub traffic yields to user I/O.
        const Priority priority =
            op->regen == RegenFlow::Recon || op->regen == RegenFlow::ScrubRepair
                ? Priority::Background
                : Priority::Normal;
        // A degraded read's or a rebuild's lost unit lives on the
        // failed disk, so no survivor may.
        const bool lostOnFailedDisk =
            op->regen == RegenFlow::DegradedRead ||
            op->regen == RegenFlow::Recon;
        const int G = c.layout_->stripeWidth();
        op->status = IoStatus::Ok;
        op->pending = G - 1;
        for (int pos = 0; pos < G; ++pos) {
            if (pos == op->su.pos)
                continue;
            const PhysicalUnit pu = c.effectiveUnit(op->su.stripe, pos);
            DECLUST_ASSERT(!lostOnFailedDisk || pu.disk != c.failedDisk_,
                           "two stripe units on one disk");
            c.issueUnit(pu, false, &regenRead, op, priority);
        }
    }

    static void
    regenRead(void *ctx, IoStatus status)
    {
        IoOp *op = fromCtx(ctx);
        noteStatus(op, status);
        if (--op->pending != 0)
            return;
        if (regenSettled(op, Stage::Read))
            return;
        if (op->status != IoStatus::Ok) {
            // A survivor failed too: the unit cannot be regenerated.
            regenLost(op, Stage::Read);
            return;
        }
        ArrayController &c = *op->ctl;
        c.afterXor(c.layout_->stripeWidth() - 1, &regenCombined, op);
    }

    static void
    regenCombined(void *ctx)
    {
        IoOp *op = fromCtx(ctx);
        ArrayController &c = *op->ctl;
        if (regenSettled(op, Stage::Combined))
            return;
        // Re-check recoverability: a second disk may have died after the
        // survivor reads completed, poisoning a unit this XOR would use.
        if (c.secondFailedDisk_ >= 0 &&
            !c.stripeRecoverableExcept(op->su.stripe, op->su.pos)) {
            regenLost(op, Stage::Combined);
            return;
        }
        op->v = c.xorStripeExcept(op->su.stripe, op->su.pos);
        regenTail(op);
    }

    /** The flow's own exit, checked first at every stage: true when it
     * has already finished with the op. */
    static bool
    regenSettled(IoOp *op, Stage stage)
    {
        switch (op->regen) {
          case RegenFlow::Hedge: return hedgeSettled(op);
          case RegenFlow::Recon:
            return stage == Stage::Locked && reconSettled(op);
          default: return false;
        }
    }

    /** The under-lock re-check passed; the survivor reads follow. */
    static void
    regenStarted(IoOp *op)
    {
        if (op->regen == RegenFlow::DegradedRead)
            DECLUST_PERF_INC(DegradedReads);
        else if (op->regen == RegenFlow::Recon)
            reconStarted(op);
    }

    /** The stripe cannot supply the unit at @p stage. */
    static void
    regenLost(IoOp *op, Stage stage)
    {
        switch (op->regen) {
          case RegenFlow::DegradedRead: degradedLost(op, stage); return;
          case RegenFlow::ReadRepair:   readLost(op); return;
          case RegenFlow::Hedge:        hedgeChainFailed(op); return;
          case RegenFlow::Recon:        reconLost(op); return;
          case RegenFlow::ScrubRepair:  scrubLost(op); return;
        }
    }

    /** The regenerated value is in op->v. */
    static void
    regenTail(IoOp *op)
    {
        switch (op->regen) {
          case RegenFlow::DegradedRead: degradedTail(op); return;
          case RegenFlow::ReadRepair:   repairTail(op); return;
          case RegenFlow::Hedge:        hedgeTail(op); return;
          case RegenFlow::Recon:        reconTail(op); return;
          case RegenFlow::ScrubRepair:  scrubTail(op); return;
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    static void
    startRead(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        if (c.stripeUnrecoverable(op->su.stripe)) {
            finishLostRead(op, /*locked=*/false);
            return;
        }
        const bool onFailed = op->data.disk == c.failedDisk_;
        const bool redirectable =
            c.reconActive_ &&
            c.reconstructed_[static_cast<std::size_t>(op->data.offset)] ==
                kRebuilt &&
            (c.algorithm_ == ReconAlgorithm::Redirect ||
             c.algorithm_ == ReconAlgorithm::RedirectPiggyback);

        if (!onFailed || redirectable) {
            // Plain read of valid contents: a healthy disk, a redirected
            // read of the rebuilt replacement/spare unit, or a remapped
            // spare location after a distributed-sparing rebuild.
            op->dst0 = c.effectiveUnit(op->su.stripe, op->su.pos);
            if (c.hedgeTicks_ > 0) {
                armHedge(op);
                return;
            }
            c.issueUnit(op->dst0, false, &readVerifyDone, op);
            return;
        }

        // On-the-fly reconstruction from the stripe's survivors.
        regenerate(op, RegenFlow::DegradedRead);
    }

    static void
    readVerifyDone(void *ctx, IoStatus status)
    {
        IoOp *op = fromCtx(ctx);
        ArrayController &c = *op->ctl;
        if (status != IoStatus::Ok) {
            noteStatus(op, status);
            startReadRepair(op, status);
            return;
        }
        const UnitValue got = c.contents_.get(op->dst0.disk,
                                              op->dst0.offset);
        DECLUST_ASSERT(got == c.shadow_.get(op->dataUnit), "read of unit ",
                       op->dataUnit, " returned wrong data");
        finishPart(op);
    }

    /** Loss hook of the read flows: the stripe cannot supply the unit,
     * so it is recorded unrecoverable and the read completes lost. */
    static void
    readLost(IoOp *op)
    {
        loseStripe(*op->ctl, op->su.stripe);
        finishLostRead(op, /*locked=*/true);
    }

    /** Degraded read's loss handler (the target sits on the failed
     * disk). */
    static void
    degradedLost(IoOp *op, Stage stage)
    {
        ArrayController &c = *op->ctl;
        // A survivor failed under this read: the failed disk's unit can
        // never be rebuilt either.
        if (stage != Stage::Locked && c.reconActive_ &&
            op->data.disk == c.failedDisk_)
            c.markReconstructionLost(op->data.offset);
        readLost(op);
    }

    static void
    degradedTail(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        DECLUST_ASSERT(op->v == c.shadow_.get(op->dataUnit),
                       "on-the-fly reconstruction of unit ", op->dataUnit,
                       " produced wrong data");
        const bool piggyback =
            c.reconActive_ &&
            c.algorithm_ == ReconAlgorithm::RedirectPiggyback &&
            c.reconstructed_[static_cast<std::size_t>(op->data.offset)] ==
                kNotRebuilt;
        if (!piggyback) {
            c.locks_.release(op->su.stripe);
            finishPart(op);
            return;
        }
        // Piggyback: the user response is complete, but the freshly
        // reconstructed unit is also written to its rebuild home (the
        // replacement disk or the stripe's spare unit).
        DECLUST_PERF_INC(PiggybackWrites);
        userPartDone(op);
        op->dst0 = c.rebuildTarget(op->su.stripe, op->data.offset);
        c.issueUnit(op->dst0, true, &piggybackWritten, op,
                    Priority::Background);
    }

    static void
    piggybackWritten(void *ctx, IoStatus status)
    {
        IoOp *op = fromCtx(ctx);
        ArrayController &c = *op->ctl;
        noteStatus(op, status);
        if (status == IoStatus::Ok) {
            c.contents_.set(op->dst0.disk, op->dst0.offset, op->v);
            c.markReconstructed(op->data.offset);
        }
        // On failure the piggyback write is simply dropped: the sweep
        // will reconstruct (or abandon) the unit on its own.
        c.locks_.release(op->su.stripe);
        c.ops_.release(op);
    }

    /** Read-repair. The home read failed (medium error, or the home
     * sat on a disk that died mid-flight): regenerate the value from the
     * stripe's survivors. A medium error additionally rewrites the
     * recovered value to the (remapped) home sector. */
    static void
    startReadRepair(IoOp *op, IoStatus status)
    {
        ArrayController &c = *op->ctl;
        if (c.stripeUnrecoverable(op->su.stripe) ||
            !c.stripeRecoverableExcept(op->su.stripe, op->su.pos)) {
            loseStripe(c, op->su.stripe);
            finishLostRead(op, /*locked=*/false);
            return;
        }
        DECLUST_PERF_INC(ReadRepairs);
        op->repairRewrite = status == IoStatus::MediumError;
        regenerate(op, RegenFlow::ReadRepair);
    }

    static void
    repairTail(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        DECLUST_ASSERT(op->v == c.shadow_.get(op->dataUnit),
                       "parity repair of unit ", op->dataUnit,
                       " produced wrong data");
        if (!op->repairRewrite) {
            // The home disk is gone; there is nowhere to rewrite. The
            // read itself was served from parity (not a sector repair —
            // the medium was never at fault).
            c.locks_.release(op->su.stripe);
            finishPart(op);
            return;
        }
        ++c.faultStats_.sectorRepairs;
        // Rewrite the recovered value to the remapped home sector.
        c.issueUnit(op->dst0, true, &readRepairWritten, op);
    }

    static void
    readRepairWritten(void *ctx, IoStatus status)
    {
        IoOp *op = fromCtx(ctx);
        ArrayController &c = *op->ctl;
        noteStatus(op, status);
        // The in-memory model never corrupted the value, so contents
        // already match; only the media state changed.
        c.locks_.release(op->su.stripe);
        finishPart(op);
    }

    // ------------------------------------------------------------------
    // Hedged reads
    //
    // With hedgeAfterMs > 0, every plain-path user read arms a deadline
    // timer alongside the primary disk access. If the primary has not
    // completed by the deadline, the controller launches the
    // parity-reconstruct read a degraded read would perform — the
    // regenerate chain, at user priority — racing the slow disk.
    //
    // Resolution rule: whichever side materializes the value first
    // delivers the user completion; kHedgeResolved records that the
    // completion happened, exactly once, and every later arrival drains
    // silently into the accounting (HedgeWasted). "First" is decided by
    // event order on the simulated clock, so the race is deterministic
    // across --jobs / --shards / queue implementations.
    //
    // Lifetime rule: the event queue has no cancellation, so the pooled
    // op must outlive its pending deadline timer and any in-flight
    // hedge chain. hedgeHolds counts those obligations (timer +1, chain
    // +1); the primary flow's end sets kHedgeMainDone instead of
    // releasing, and the op is recycled by whichever of opRelease /
    // dropHold sees the other side already finished. hedgedLive_ keeps
    // the controller non-quiescent until every such record drains.
    // ------------------------------------------------------------------

    /** Bump the controller's fault counters for one completion without
     * folding into the op's accumulator — the hedge paths keep the
     * primary's outcome and the chain's worseStatus fold separate. */
    static void
    noteRawStatus(ArrayController &c, IoStatus status)
    {
        if (status == IoStatus::Ok)
            return;
        if (status == IoStatus::MediumError)
            ++c.faultStats_.mediumErrors;
        else
            ++c.faultStats_.diskFailedIos;
    }

    /** Recycle a hedged op (primary flow and all holds finished). */
    static void
    hedgedRelease(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        --c.hedgedLive_;
        c.ops_.release(op);
    }

    /** The primary flow of a hedged op is over: recycle now, or defer
     * to the last hold if the timer or chain still references the op. */
    static void
    opRelease(IoOp *op)
    {
        if (op->hedgeHolds > 0) {
            op->hedgeFlags |= kHedgeMainDone;
            return;
        }
        hedgedRelease(op);
    }

    /** Drop one hold; recycle once the primary flow has also ended. */
    static void
    dropHold(IoOp *op)
    {
        DECLUST_DEBUG_ASSERT(op->hedgeHolds > 0, "hedge hold underflow");
        if (--op->hedgeHolds == 0 && (op->hedgeFlags & kHedgeMainDone))
            hedgedRelease(op);
    }

    /** The hedge chain has fully unwound: drop its hold. */
    static void
    hedgeEnd(IoOp *op)
    {
        op->hedgeFlags |= kHedgeEnded;
        dropHold(op);
    }

    /** Both sides of a hedged read failed: deliver the loss. */
    static void
    lostHedged(IoOp *op, bool locked)
    {
        ArrayController &c = *op->ctl;
        op->hedgeFlags |= kHedgeResolved;
        loseStripe(c, op->su.stripe);
        ++c.faultStats_.userReadsLost;
        if (locked)
            c.locks_.release(op->su.stripe);
        userPartDone(op);
    }

    /** Arm a hedged read: deadline timer plus the primary access. The
     * timer is scheduled first — with both sides landing on the same
     * tick, the timer's lower sequence number fires it first, and that
     * fixed order is part of the determinism contract. */
    static void
    armHedge(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        op->hedgeFlags = kHedgeArmed;
        op->hedgeHolds = 1;
        op->status = IoStatus::Ok;
        ++c.hedgedLive_;
        c.eq_.scheduleIn(c.hedgeTicks_, [op] { hedgeDeadline(op); });
        c.issueUnit(op->dst0, false, &hedgePrimaryDone, op);
    }

    /** The deadline fired: launch the reconstruct race unless the
     * primary already finished (or a hedge is somehow already up). */
    static void
    hedgeDeadline(IoOp *op)
    {
        const std::uint8_t f = op->hedgeFlags;
        if (!(f & (kHedgeResolved | kHedgePrimaryDone | kHedgeLaunched)))
            tryLaunchHedge(op);
        dropHold(op);
    }

    /**
     * Start the reconstruct side of a hedged read: the regenerate chain
     * over the G-1 survivors. Returns false — without launching — if
     * the stripe cannot supply the value (already unrecoverable, or a
     * survivor is lost).
     */
    static bool
    tryLaunchHedge(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        if (c.stripeUnrecoverable(op->su.stripe) ||
            !c.stripeRecoverableExcept(op->su.stripe, op->su.pos))
            return false;
        op->hedgeFlags |= kHedgeLaunched;
        ++op->hedgeHolds;
        DECLUST_PERF_INC(HedgesLaunched);
        ++c.hedgeStats_.launched;
        regenerate(op, RegenFlow::Hedge);
        return true;
    }

    /** The primary delivered first — while the hedge waited for the
     * lock, read the survivors, or paid the XOR: drain and discard. */
    static bool
    hedgeSettled(IoOp *op)
    {
        if (!(op->hedgeFlags & kHedgeResolved))
            return false;
        ArrayController &c = *op->ctl;
        DECLUST_PERF_INC(HedgeWasted);
        ++c.hedgeStats_.wasted;
        c.locks_.release(op->su.stripe);
        hedgeEnd(op);
        return true;
    }

    /** The hedge chain cannot deliver (the stripe lost a survivor).
     * With the primary already failed this is a lost read; otherwise
     * the primary is still in flight and may yet succeed, so the chain
     * just steps aside. */
    static void
    hedgeChainFailed(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        if (op->hedgeFlags & kHedgePrimaryDone) {
            lostHedged(op, /*locked=*/true);
        } else {
            op->hedgeFlags |= kHedgeFailed;
            c.locks_.release(op->su.stripe);
        }
        hedgeEnd(op);
    }

    static void
    hedgeTail(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        DECLUST_ASSERT(op->v == c.shadow_.get(op->dataUnit),
                       "hedged reconstruction of unit ", op->dataUnit,
                       " produced wrong data");
        op->hedgeFlags |= kHedgeResolved;
        DECLUST_PERF_INC(HedgeWins);
        ++c.hedgeStats_.wins;
        userPartDone(op);
        if ((op->hedgeFlags & kHedgePrimaryDone) && op->repairRewrite) {
            // The primary reported a medium error before the hedge won:
            // rewrite the recovered value to the (remapped) home
            // sector, still under the stripe lock.
            ++c.faultStats_.sectorRepairs;
            c.issueUnit(op->dst0, true, &hedgeRewritten, op);
            return;
        }
        c.locks_.release(op->su.stripe);
        hedgeEnd(op);
    }

    static void
    hedgeRewritten(void *ctx, IoStatus status)
    {
        IoOp *op = fromCtx(ctx);
        ArrayController &c = *op->ctl;
        noteRawStatus(c, status);
        // The in-memory model never corrupted the value (see
        // readRepairWritten); only the media state changed.
        c.locks_.release(op->su.stripe);
        hedgeEnd(op);
    }

    /** Primary completion of a hedged read. */
    static void
    hedgePrimaryDone(void *ctx, IoStatus status)
    {
        IoOp *op = fromCtx(ctx);
        ArrayController &c = *op->ctl;
        noteRawStatus(c, status);
        op->hedgeFlags |= kHedgePrimaryDone;
        if (op->hedgeFlags & kHedgeResolved) {
            // The hedge already delivered the value; the slow primary
            // lost the race. When it lost with a medium error, the home
            // rewrite is skipped — the model's contents were never
            // corrupted, so the divergence is accounting only.
            opRelease(op);
            return;
        }
        if (status == IoStatus::Ok) {
            const UnitValue got = c.contents_.get(op->dst0.disk,
                                                  op->dst0.offset);
            DECLUST_ASSERT(got == c.shadow_.get(op->dataUnit),
                           "read of unit ", op->dataUnit,
                           " returned wrong data");
            op->hedgeFlags |= kHedgeResolved;
            userPartDone(op);
            opRelease(op);
            return;
        }
        // The primary failed. The hedge chain is exactly the parity
        // repair a non-hedged read would run (see startReadRepair); if
        // it is already in flight, let it deliver. If it already ended,
        // it ended without delivering (a delivered chain sets
        // kHedgeResolved, handled above), so both sides have lost.
        op->repairRewrite = status == IoStatus::MediumError;
        if (op->hedgeFlags & kHedgeLaunched) {
            if (op->hedgeFlags & kHedgeEnded)
                lostHedged(op, /*locked=*/false);
            opRelease(op);
            return;
        }
        if (!tryLaunchHedge(op))
            lostHedged(op, /*locked=*/false);
        opRelease(op);
    }

    // ------------------------------------------------------------------
    // The write chain
    //
    // Every single-unit write runs one step sequence under the stripe
    // lock; its plan (IoOp::writePlan, the kWrite* bits) is all that
    // differs between the paper's write shapes (DESIGN.md, "One write
    // chain", tabulates them):
    //
    //   lock → lost? → plan → phase A fork → afterXor(reads + 1) →
    //   combine → phase B fork → all Ok? → commit
    //
    // Phase A writes the data early and issues the reads the new parity
    // needs; the combine XORs them with the new data into op->aux. Phase
    // B writes the data, the parity and the write-through copy; the
    // commit applies all of them to the contents and the shadow at once.
    // ------------------------------------------------------------------

    static void
    writeLocked(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        const int dus = c.layout_->dataUnitsPerStripe();
        const std::int64_t stripe = op->su.stripe;

        if (c.stripeUnrecoverable(stripe)) {
            finishLostWrite(op, /*locked=*/true);
            return;
        }

        const bool dataLost = c.unitLost(op->data);
        const bool parityLost = c.unitLost(c.layout_->placeParity(stripe));
        if (dataLost && !c.stripeRecoverableExcept(stripe, op->su.pos)) {
            // The target is lost AND so is a second unit of its stripe
            // (its parity, or a data unit the degraded write would have
            // to read): nothing consistent can be written.
            loseStripe(c, stripe);
            finishLostWrite(op, /*locked=*/true);
            return;
        }
        op->v = c.values_.fresh();

        // Where the (valid) data and parity currently live: the layout
        // location, or the stripe's spare after a distributed rebuild.
        op->dst0 = c.effectiveUnit(stripe, op->su.pos); // data home
        op->dst1 = c.effectiveUnit(stripe, dus);        // parity home

        if (parityLost) {
            // The parity unit is gone: there is no value in updating it,
            // so the write is a single data access (the paper's
            // degraded-mode "one, rather than four, disk accesses" case).
            DECLUST_PERF_INC(ParityLostWrites);
            op->writePlan = kWriteData;
        } else if (dataLost) {
            // The new parity is the XOR of the other data units and the
            // new data; the lost unit itself is not written.
            DECLUST_PERF_INC(DegradedWrites);
            op->writePlan = kWriteReadOthers | kWriteParity;
        } else if (dus == 1) {
            // Mirrored write: update both copies in parallel.
            DECLUST_PERF_INC(MirroredWrites);
            op->writePlan = kWriteData | kWriteParity;
        } else if (dus == 2 &&
                   !c.unitLost(c.layout_->place(stripe, 1 - op->su.pos))) {
            // Three-access reconstruct-write (section 6): write the new
            // data and read the other data unit in parallel, then write
            // parity computed from the two.
            DECLUST_PERF_INC(ReconstructWrites);
            op->writePlan =
                kWriteData | kWriteDataFirst | kWriteReadOthers | kWriteParity;
        } else {
            // Standard four-access read-modify-write: pre-read old data
            // and old parity, then overwrite both.
            DECLUST_PERF_INC(RmwWrites);
            op->writePlan = kWriteData | kWriteReadOld | kWriteParity;
        }

        const int reads = writeReads(op);
        if (reads == 0) {
            // Nothing to combine: a mirror's (or a lost primary's) copy
            // is the new value itself.
            op->aux = op->v;
            writeIssue(op);
            return;
        }
        const bool dataFirst = op->writePlan & kWriteDataFirst;
        op->pending = reads + dataFirst;
        if (dataFirst)
            c.issueUnit(op->dst0, true, &writeForked, op);
        for (int i = 0; i < reads; ++i)
            c.issueUnit(writeReadUnit(op, i), false, &writeForked, op);
    }

    /** How many units phase A reads. */
    static int
    writeReads(const IoOp *op)
    {
        if (op->writePlan & kWriteReadOld)
            return 2;
        if (op->writePlan & kWriteReadOthers)
            return op->ctl->layout_->dataUnitsPerStripe() - 1;
        return 0;
    }

    /** Phase A's read @p i: the old data and the old parity, or the
     * stripe's other data units in ascending position. */
    static PhysicalUnit
    writeReadUnit(const IoOp *op, int i)
    {
        if (op->writePlan & kWriteReadOld)
            return i == 0 ? op->dst0 : op->dst1;
        const int pos = i < op->su.pos ? i : i + 1;
        return op->ctl->effectiveUnit(op->su.stripe, pos);
    }

    /** Shared failure epilogue for write flows: when any disk access of
     * the flow failed, the write is conservatively recorded as lost (the
     * stripe becomes unrecoverable; contents and shadow stay untouched,
     * so no partially-applied state is ever modeled). Returns true when
     * the flow was terminated. Requires the stripe lock held. */
    static bool
    writeFlowFailed(IoOp *op)
    {
        if (op->status == IoStatus::Ok)
            return false;
        ArrayController &c = *op->ctl;
        loseStripe(c, op->su.stripe);
        finishLostWrite(op, /*locked=*/true);
        return true;
    }

    /** Phase A joined: charge the XOR of what it read and the new data. */
    static void
    writeForked(void *ctx, IoStatus status)
    {
        IoOp *op = fromCtx(ctx);
        noteStatus(op, status);
        if (--op->pending != 0)
            return;
        if (writeFlowFailed(op))
            return;
        op->ctl->afterXor(writeReads(op) + 1, &writeCombine, op);
    }

    /** The new parity: what phase A read, XORed with the new data. */
    static void
    writeCombine(void *ctx)
    {
        IoOp *op = fromCtx(ctx);
        ArrayController &c = *op->ctl;
        const std::uint8_t plan = op->writePlan;
        const int reads = writeReads(op);
        UnitValue vals[ArrayController::kMaxCheckedStripeWidth];
        op->aux = op->v;
        for (int i = 0; i < reads; ++i) {
            const PhysicalUnit pu = writeReadUnit(op, i);
            const UnitValue v = c.contents_.get(pu.disk, pu.offset);
            op->aux ^= v;
            if (c.plane_)
                vals[i] = v;
        }
        if (c.plane_) {
            vals[reads] = op->v;
            c.checkCombine((plan & kWriteReadOld)     ? "read-modify-write"
                           : (plan & kWriteDataFirst) ? "reconstruct-write"
                                                      : "degraded-write-fold",
                           vals, reads + 1, op->aux);
        }
        writeIssue(op);
    }

    /** Phase B: the data, the parity, and the write-through copy. */
    static void
    writeIssue(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        std::uint8_t &plan = op->writePlan;
        // A write to a lost data unit also sends the new data to its
        // rebuild home (user-writes and both redirect algorithms); that
        // only exists for units of the disk under reconstruction (not
        // for units lost to a second failure).
        if (!(plan & kWriteData) && c.reconActive_ &&
            c.algorithm_ != ReconAlgorithm::Baseline &&
            op->data.disk == c.failedDisk_) {
            plan |= kWriteThrough;
            op->dst2 = c.rebuildTarget(op->su.stripe, op->data.offset);
        }
        const bool data = (plan & kWriteData) && !(plan & kWriteDataFirst);
        const bool parity = plan & kWriteParity;
        const bool through = plan & kWriteThrough;
        op->pending = data + parity + through;
        if (data)
            c.issueUnit(op->dst0, true, &writeDone, op);
        if (parity)
            c.issueUnit(op->dst1, true, &writeDone, op);
        if (through)
            c.issueUnit(op->dst2, true, &writeDone, op);
    }

    /** Commit: every write landed, so the contents and shadow change. */
    static void
    writeDone(void *ctx, IoStatus status)
    {
        IoOp *op = fromCtx(ctx);
        noteStatus(op, status);
        if (--op->pending != 0)
            return;
        if (writeFlowFailed(op))
            return;
        ArrayController &c = *op->ctl;
        const std::uint8_t plan = op->writePlan;
        if (plan & kWriteData)
            c.contents_.set(op->dst0.disk, op->dst0.offset, op->v);
        if (plan & kWriteParity)
            c.contents_.set(op->dst1.disk, op->dst1.offset, op->aux);
        if (plan & kWriteThrough) {
            c.contents_.set(op->dst2.disk, op->dst2.offset, op->v);
            c.markReconstructed(op->data.offset);
        }
        c.shadow_.set(op->dataUnit, op->v);
        c.locks_.release(op->su.stripe);
        finishPart(op);
    }

    // ------------------------------------------------------------------
    // Large writes
    // ------------------------------------------------------------------

    static void
    largeWriteStep(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        DECLUST_ASSERT(c.failedDisk_ < 0,
                       "large-write path requires a fault-free array");
        DECLUST_PERF_INC(LargeWrites);
        const int dus = c.layout_->dataUnitsPerStripe();
        const std::int64_t stripe = op->su.stripe;
        // Generate and record the fresh contents up front, under the
        // stripe lock. Contents and shadow always change together within
        // this one event, so a concurrent healthy read (which compares
        // the two) sees either the old pair or the new pair — never a
        // mix — and the fault-free requirement rules out every flow that
        // reads this stripe's parity before we release.
        UnitValue parity = 0;
        UnitValue vals[ArrayController::kMaxCheckedStripeWidth];
        int n = 0;
        for (int pos = 0; pos < dus; ++pos) {
            const UnitValue value = c.values_.fresh();
            parity ^= value;
            if (c.plane_)
                vals[n++] = value;
            const PhysicalUnit pu = c.effectiveUnit(stripe, pos);
            c.contents_.set(pu.disk, pu.offset, value);
            c.shadow_.set(
                c.layout_->stripeToDataUnit(StripeUnit{stripe, pos}),
                value);
        }
        c.checkCombine("large-write", vals, n, parity);
        const PhysicalUnit ppu = c.effectiveUnit(stripe, dus);
        c.contents_.set(ppu.disk, ppu.offset, parity);
        // The new parity XORs the fresh data units before anything hits
        // the disks.
        c.afterXor(dus, &largeWriteIssue, op);
    }

    static void
    largeWriteIssue(void *ctx)
    {
        IoOp *op = fromCtx(ctx);
        ArrayController &c = *op->ctl;
        const int G = c.layout_->stripeWidth();
        op->pending = G;
        for (int pos = 0; pos < G; ++pos)
            c.issueUnit(c.effectiveUnit(op->su.stripe, pos), true,
                        &largeWriteDone, op);
    }

    static void
    largeWriteDone(void *ctx, IoStatus status)
    {
        IoOp *op = fromCtx(ctx);
        // Writes cannot fail in this model short of a whole-disk death,
        // and the large-write path requires a fault-free array.
        DECLUST_DEBUG_ASSERT(status == IoStatus::Ok,
                             "large-write access failed");
        (void)status;
        if (--op->pending != 0)
            return;
        ArrayController &c = *op->ctl;
        c.locks_.release(op->su.stripe);
        finishPart(op);
    }

    // ------------------------------------------------------------------
    // Reconstruction cycles
    // ------------------------------------------------------------------

    static void
    finishCycle(IoOp *op, CycleResult res)
    {
        ArrayController &c = *op->ctl;
        DECLUST_ANALYZE_SUPPRESS(
            "hot-path-function: moves the reconstructor's cycle "
            "closure out of the op before recycling it — a move, not "
            "an allocating conversion");
        std::function<void(CycleResult)> done = std::move(op->cycleDone);
        c.ops_.release(op);
        done(res);
    }

    /** A user write-through may have reconstructed the unit while the
     * cycle waited for the lock (or a fault may have doomed it; either
     * way the sweep moves on). */
    static bool
    reconSettled(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        if (c.reconstructed_[static_cast<std::size_t>(op->offset)] ==
            kNotRebuilt)
            return false;
        c.locks_.release(op->su.stripe);
        finishCycle(op, CycleResult{});
        return true;
    }

    static void
    reconStarted(IoOp *op)
    {
        DECLUST_PERF_INC(ReconCycles);
        op->start = op->ctl->eq_.now(); // read-phase start
    }

    /** Abandon a reconstruction cycle: the unit's stripe lost a second
     * unit (or the rebuilt value has no home), so the unit can never be
     * regenerated. */
    static void
    reconLost(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        loseStripe(c, op->su.stripe);
        c.markReconstructionLost(op->offset);
        c.locks_.release(op->su.stripe);
        CycleResult res;
        res.skipped = false;
        res.lost = true;
        finishCycle(op, res);
    }

    static void
    reconTail(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        op->mid = c.eq_.now(); // write-phase start
        op->dst0 = c.rebuildTarget(op->su.stripe, op->offset);
        c.issueUnit(op->dst0, true, &reconWritten, op,
                    Priority::Background);
    }

    static void
    reconWritten(void *ctx, IoStatus status)
    {
        IoOp *op = fromCtx(ctx);
        noteStatus(op, status);
        if (op->status != IoStatus::Ok) {
            // The rebuild-target write failed (e.g. the spare's disk
            // died mid-flight): the regenerated value has no home.
            reconLost(op);
            return;
        }
        ArrayController &c = *op->ctl;
        c.contents_.set(op->dst0.disk, op->dst0.offset, op->v);
        c.markReconstructed(op->offset);
        c.locks_.release(op->su.stripe);
        CycleResult res;
        res.skipped = false;
        res.readPhaseMs = ticksToMs(op->mid - op->start);
        res.writePhaseMs = ticksToMs(c.eq_.now() - op->mid);
        DECLUST_PERF_HIST(ReconReadPhaseTicks, op->mid - op->start);
        DECLUST_PERF_HIST(ReconWritePhaseTicks, c.eq_.now() - op->mid);
        finishCycle(op, res);
    }

    // ------------------------------------------------------------------
    // Scrub cycles
    //
    // An online scrub verifies one unit with a background-priority read
    // (yielding to user traffic wherever priority separation is on).
    // Clean reads end the cycle; a medium error means the drive just
    // remapped a latent defect under the scrubber instead of under a
    // future degraded read — the cycle regenerates the value from the
    // stripe's survivors and rewrites the remapped home, all at
    // background priority under the stripe lock. Scrub cycles reuse
    // the CycleResult plumbing (finishCycle) but never touch user
    // response statistics.
    // ------------------------------------------------------------------

    static void
    startScrub(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        DECLUST_PERF_INC(ScrubReads);
        c.issueUnit(op->dst0, false, &scrubReadDone, op,
                    Priority::Background);
    }

    static void
    scrubReadDone(void *ctx, IoStatus status)
    {
        IoOp *op = fromCtx(ctx);
        noteStatus(op, status);
        if (status == IoStatus::Ok) {
            CycleResult res;
            res.skipped = false;
            finishCycle(op, res);
            return;
        }
        if (status == IoStatus::DiskFailed) {
            // The disk died with the scrub in flight: the rebuild
            // machinery owns it now.
            finishCycle(op, CycleResult{});
            return;
        }
        // Latent defect found: the drive remapped the sector and lost
        // its data. Regenerate from parity and rewrite the home.
        regenerate(op, RegenFlow::ScrubRepair);
    }

    /** Abandon a scrub repair: the stripe cannot regenerate the unit. */
    static void
    scrubLost(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        loseStripe(c, op->su.stripe);
        c.locks_.release(op->su.stripe);
        CycleResult res;
        res.skipped = false;
        res.lost = true;
        finishCycle(op, res);
    }

    static void
    scrubTail(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        // The in-memory model never corrupted the value; the medium
        // did. The regenerated value must equal the stored one.
        DECLUST_ASSERT(op->v ==
                           c.contents_.get(op->dst0.disk, op->dst0.offset),
                       "scrub repair of stripe ", op->su.stripe, " pos ",
                       op->su.pos, " produced wrong data");
        ++c.faultStats_.sectorRepairs;
        DECLUST_PERF_INC(ScrubRepairs);
        c.issueUnit(op->dst0, true, &scrubRewritten, op,
                    Priority::Background);
    }

    static void
    scrubRewritten(void *ctx, IoStatus status)
    {
        IoOp *op = fromCtx(ctx);
        ArrayController &c = *op->ctl;
        noteStatus(op, status);
        c.locks_.release(op->su.stripe);
        CycleResult res;
        res.skipped = false;
        res.repaired = true;
        finishCycle(op, res);
    }

    // ------------------------------------------------------------------
    // Copyback cycles
    // ------------------------------------------------------------------

    static void
    copybackLocked(IoOp *op)
    {
        ArrayController &c = *op->ctl;
        DECLUST_PERF_INC(CopybackCycles);
        op->dst0 = c.layout_->placeSpare(op->su.stripe);
        c.issueUnit(op->dst0, false, &copybackRead, op,
                    Priority::Background);
    }

    static void
    copybackRead(void *ctx, IoStatus status)
    {
        IoOp *op = fromCtx(ctx);
        ArrayController &c = *op->ctl;
        noteStatus(op, status);
        if (status != IoStatus::Ok) {
            // The spare copy could not be read back. The copy still
            // proceeds mechanically (the in-memory value is intact),
            // but the affected stripe is recorded as a loss.
            loseStripe(c, op->su.stripe);
        }
        op->v = c.contents_.get(op->dst0.disk, op->dst0.offset);
        op->dst1 = PhysicalUnit{c.remapDisk_, op->offset};
        c.issueUnit(op->dst1, true, &copybackWritten, op,
                    Priority::Background);
    }

    static void
    copybackWritten(void *ctx, IoStatus status)
    {
        IoOp *op = fromCtx(ctx);
        ArrayController &c = *op->ctl;
        noteStatus(op, status);
        c.contents_.set(c.remapDisk_, op->offset, op->v);
        // Unit lives on the replacement again; the spare slot is free.
        c.reconstructed_[static_cast<std::size_t>(op->offset)] = kNotRebuilt;
        --c.remappedCount_;
        c.locks_.release(op->su.stripe);
        // The sweep's callback issues its next cycle from here; the op
        // is recycled once it returns.
        op->copyDone(true);
        c.ops_.release(op);
    }

    // ------------------------------------------------------------------
    // Deferred disk issue (controller-CPU overhead path)
    // ------------------------------------------------------------------

    static void
    issueDeferred(void *ctx)
    {
        auto *d = static_cast<ArrayController::DeferredIssue *>(ctx);
#if DECLUST_VALIDATE
        DECLUST_VALIDATE_CHECK(!looksPoisoned(d->ctl),
                               "deferred issue fired on a released "
                               "carrier at ", ctx);
        d->ctl->deferredPool_.checkHandle(d, d->gen, "DeferredIssue");
#endif
        ArrayController *c = d->ctl;
        const int disk = d->disk;
        const DiskRequest req = d->req;
        d->~DeferredIssue();
        c->deferredPool_.deallocate(d);
        c->disks_[static_cast<std::size_t>(disk)]->submit(req);
    }
};

// ----------------------------------------------------------------------

ArrayController::ArrayController(EventQueue &eq,
                                 std::unique_ptr<Layout> layout,
                                 const ArrayParams &params)
    : eq_(eq),
      layout_(std::move(layout)),
      params_(params),
      contents_(layout_->numDisks(), layout_->unitsPerDisk()),
      shadow_(layout_->numDataUnits()),
      values_(params.valueSeed),
      stats_(params.histogramLimitMs, params.histogramBuckets)
{
    DECLUST_ASSERT(layout_, "controller needs a layout");
    params_.geometry.validate();
    // G == 2 degenerates to mirroring: the "parity" unit of a two-unit
    // stripe is an exact copy of its data unit (XOR over one value),
    // which makes a declustered G=2 layout Copeland & Keller's
    // interleaved declustering (paper section 3).
    DECLUST_ASSERT(layout_->stripeWidth() >= 2,
                   "parity stripes need at least 2 units");
    const std::int64_t unitCapacity =
        params_.geometry.totalSectors() / params_.unitSectors;
    DECLUST_ASSERT(layout_->unitsPerDisk() <= unitCapacity,
                   "layout maps ", layout_->unitsPerDisk(),
                   " units/disk but the geometry only holds ",
                   unitCapacity);
    if (params_.dataPlane != ec::DataPlaneMode::Off) {
        const std::size_t unitBytes =
            static_cast<std::size_t>(params_.unitSectors) *
            static_cast<std::size_t>(params_.geometry.sectorBytes);
        if (layout_->stripeWidth() > kMaxCheckedStripeWidth)
            DECLUST_FATAL("data-plane combine checks support stripes up to ",
                          kMaxCheckedStripeWidth, " units wide, not ",
                          layout_->stripeWidth());
        plane_ = std::make_unique<ec::DataPlane>(params_.dataPlane,
                                                 unitBytes);
    }
    // The XOR charge basis is fixed here, per unit, so afterXor charges
    // are additive across batches (see xorChargeTicks).
    xorTicksPerUnit_ = msToTicks(params_.xorOverheadMsPerUnit);
    if (params_.controllerOverheadMs > 0 || xorTicksPerUnit_ > 0) {
        cpu_ = std::make_unique<SerialResource>(eq_);
    }
    if (params_.hedgeAfterMs < 0)
        DECLUST_FATAL("hedge deadline ", params_.hedgeAfterMs,
                      " ms is negative (0 disables hedging)");
    hedgeTicks_ = msToTicks(params_.hedgeAfterMs);
    if (params_.hedgeAfterMs > 0 && hedgeTicks_ <= 0)
        DECLUST_FATAL("hedge deadline ", params_.hedgeAfterMs,
                      " ms rounds to zero ticks; use 0 to disable "
                      "hedging or a deadline of at least one tick");
    // Pre-size the pending set for the steady-state event population:
    // each disk contributes a handful of in-flight events (completion,
    // scheduler hand-off, track-buffer timer) and the workload/recon
    // layers keep a bounded backlog on top. Over-estimating costs a few
    // kilobytes; under-estimating only costs growth reallocations that
    // the alloc-guard test would surface.
    eq_.reserve(static_cast<std::size_t>(layout_->numDisks()) * 16 + 128);
    // Every disk shares one geometry, so one seek table serves them all.
    const auto seekModel = std::make_shared<const SeekModel>(params_.geometry);
    for (int d = 0; d < layout_->numDisks(); ++d) {
        auto background =
            params_.prioritizeUserIo
                ? makeScheduler(params_.scheduler,
                                params_.geometry.cylinders)
                : nullptr;
        disks_.push_back(std::make_unique<Disk>(
            eq_, params_.geometry, seekModel,
            makeScheduler(params_.scheduler, params_.geometry.cylinders),
            d, std::move(background)));
        if (params_.trackBuffer)
            disks_.back()->enableTrackBuffer();
    }
}

IoOp *
ArrayController::userOp(RequestKind kind, IoOp *parent,
                        std::int64_t dataUnit)
{
    IoOp *op = ops_.acquire();
    op->ctl = this;
    op->parent = parent;
    op->kind = kind;
    op->start = eq_.now();
    if (dataUnit != kNoUnit) {
        op->su = layout_->dataUnitToStripe(dataUnit);
        op->data = layout_->place(op->su.stripe, op->su.pos);
        op->dataUnit = dataUnit;
    }
    return op;
}

void
ArrayController::issueUnit(const PhysicalUnit &pu, bool isWrite,
                           void (*cb)(void *, IoStatus), void *ctx,
                           Priority priority)
{
    if (isWrite) {
        if (priority == Priority::Background)
            DECLUST_PERF_INC(DiskWriteBackground);
        else
            DECLUST_PERF_INC(DiskWriteUser);
    } else {
        if (priority == Priority::Background)
            DECLUST_PERF_INC(DiskReadBackground);
        else
            DECLUST_PERF_INC(DiskReadUser);
    }
    DiskRequest req;
    req.startSector =
        static_cast<std::int64_t>(pu.offset) * params_.unitSectors;
    req.sectorCount = params_.unitSectors;
    req.isWrite = isWrite;
    req.priority = priority;
    req.onComplete = cb;
    req.ctx = ctx;
    if (cpu_ && params_.controllerOverheadMs > 0) {
        // The access occupies the (serial) controller CPU before it can
        // reach the disk; the request rides in a pooled carrier rather
        // than a lambda capture.
        DECLUST_PERF_INC(DeferredIssues);
        void *mem = deferredPool_.allocate();
        auto *d = new (mem) DeferredIssue{this, pu.disk, req};
#if DECLUST_VALIDATE
        d->gen = deferredPool_.generation(d);
#endif
        cpu_->use(msToTicks(params_.controllerOverheadMs),
                  &IoSteps::issueDeferred, d);
        return;
    }
    disks_[static_cast<std::size_t>(pu.disk)]->submit(req);
}

void
ArrayController::afterXor(int units, void (*fn)(void *), void *ctx)
{
    const Tick charge = xorChargeTicks(units);
    if (cpu_ && charge > 0) {
        cpu_->use(charge, fn, ctx);
        return;
    }
    fn(ctx);
}

bool
ArrayController::unitLost(const PhysicalUnit &pu) const
{
    if (pu.disk == secondFailedDisk_)
        return true;
    if (pu.disk != failedDisk_)
        return false;
    return !reconActive_ ||
           reconstructed_[static_cast<std::size_t>(pu.offset)] != kRebuilt;
}

PhysicalUnit
ArrayController::effectiveUnit(std::int64_t stripe, int pos) const
{
    const PhysicalUnit pu = layout_->place(stripe, pos);
    const bool spared =
        (reconActive_ && distributedSpare_ && pu.disk == failedDisk_) ||
        (remapActive_ && pu.disk == remapDisk_);
    if (spared &&
        reconstructed_[static_cast<std::size_t>(pu.offset)] == kRebuilt)
        return layout_->placeSpare(stripe);
    return pu;
}

bool
ArrayController::stripeRecoverableExcept(std::int64_t stripe,
                                         int excludePos) const
{
    for (int pos = 0; pos < layout_->stripeWidth(); ++pos) {
        if (pos == excludePos)
            continue;
        const PhysicalUnit pu = layout_->place(stripe, pos);
        if (unitLost(pu))
            return false;
        // A rebuilt unit living in a spare slot of a now-dead disk is
        // just as gone as its original.
        if (effectiveUnit(stripe, pos).disk == secondFailedDisk_)
            return false;
    }
    return true;
}

bool
ArrayController::markStripeUnrecoverable(std::int64_t stripe)
{
    DECLUST_ANALYZE_SUPPRESS(
        "hot-path-growth: lazy one-time bitmap allocation at the "
        "first data-loss event — a rare fault, not steady state");
    if (unrecoverable_.empty())
        unrecoverable_.assign(
            static_cast<std::size_t>(layout_->numStripes()), 0);
    auto &flag = unrecoverable_[static_cast<std::size_t>(stripe)];
    if (flag)
        return false;
    flag = 1;
    anyUnrecoverable_ = true;
    ++faultStats_.unrecoverableStripes;
    return true;
}

void
ArrayController::markReconstructionLost(int offset)
{
    DECLUST_ASSERT(reconActive_, "no reconstruction in progress");
    auto &flag = reconstructed_[static_cast<std::size_t>(offset)];
    if (flag == kLostForever)
        return;
    if (flag == kRebuilt)
        --reconstructedCount_; // a rebuilt copy was lost again
    flag = kLostForever;
    ++reconLostCount_;
    ++faultStats_.reconUnitsLost;
}

PhysicalUnit
ArrayController::rebuildTarget(std::int64_t stripe, int offset) const
{
    if (distributedSpare_)
        return layout_->placeSpare(stripe);
    return PhysicalUnit{failedDisk_, offset};
}

UnitValue
ArrayController::xorStripeExcept(std::int64_t stripe, int excludePos) const
{
    UnitValue acc = 0;
    UnitValue vals[kMaxCheckedStripeWidth];
    int n = 0;
    for (int pos = 0; pos < layout_->stripeWidth(); ++pos) {
        if (pos == excludePos)
            continue;
        const PhysicalUnit pu = effectiveUnit(stripe, pos);
        const UnitValue v = contents_.get(pu.disk, pu.offset);
        acc ^= v;
        if (plane_)
            vals[n++] = v;
    }
    checkCombine("xor-stripe", vals, n, acc);
    return acc;
}

// ----------------------------------------------------------------------
// Reads
// ----------------------------------------------------------------------

void
ArrayController::readUnit(std::int64_t dataUnit, std::function<void()> done)
{
    DECLUST_PERF_INC(UserReads);
    ++outstanding_;
    IoOp *op = userOp(RequestKind::Read, nullptr, dataUnit);
    op->done = std::move(done);
    IoSteps::startRead(op);
}

void
ArrayController::readUnits(std::int64_t firstDataUnit, int count,
                           std::function<void()> done)
{
    DECLUST_ASSERT(count > 0, "empty read");
    if (count == 1) {
        readUnit(firstDataUnit, std::move(done));
        return;
    }
    DECLUST_PERF_INC(UserReads);
    ++outstanding_;
    IoOp *parent = userOp(RequestKind::Read, nullptr, kNoUnit);
    parent->pending = count;
    parent->done = std::move(done);
    for (int i = 0; i < count; ++i)
        IoSteps::startRead(
            userOp(RequestKind::Read, parent, firstDataUnit + i));
}

// ----------------------------------------------------------------------
// Writes
// ----------------------------------------------------------------------

void
ArrayController::writeUnit(std::int64_t dataUnit, std::function<void()> done)
{
    DECLUST_PERF_INC(UserWrites);
    ++outstanding_;
    IoOp *op = userOp(RequestKind::Write, nullptr, dataUnit);
    op->done = std::move(done);
    IoSteps::lockThen(op, LockStep::Write);
}

void
ArrayController::writeUnits(std::int64_t firstDataUnit, int count,
                            std::function<void()> done)
{
    DECLUST_ASSERT(count > 0, "empty write");
    if (count == 1) {
        writeUnit(firstDataUnit, std::move(done));
        return;
    }
    DECLUST_PERF_INC(UserWrites);
    ++outstanding_;

    // Partition into whole-stripe spans (large-write optimized when
    // fault-free) and leftover single units. First pass counts the
    // parts so the parent's fan-in is set before any part can finish.
    const int dus = layout_->dataUnitsPerStripe();
    const std::int64_t end = firstDataUnit + count;
    const auto wholeStripeAt = [&](std::int64_t unit) {
        return failedDisk_ < 0 && unit % dus == 0 && unit + dus <= end;
    };
    int nParts = 0;
    for (std::int64_t unit = firstDataUnit; unit < end;
         unit += wholeStripeAt(unit) ? dus : 1)
        ++nParts;

    IoOp *parent = userOp(RequestKind::Write, nullptr, kNoUnit);
    parent->pending = nParts;
    parent->done = std::move(done);

    std::int64_t unit = firstDataUnit;
    while (unit < end) {
        if (wholeStripeAt(unit)) {
            IoOp *part = userOp(RequestKind::Write, parent, kNoUnit);
            part->su = StripeUnit{unit / dus, 0};
            IoSteps::lockThen(part, LockStep::LargeWrite);
            unit += dus;
        } else {
            IoSteps::lockThen(userOp(RequestKind::Write, parent, unit),
                              LockStep::Write);
            ++unit;
        }
    }
}

// ----------------------------------------------------------------------
// Failure and reconstruction
// ----------------------------------------------------------------------

bool
ArrayController::quiescent() const
{
    if (outstanding_ != 0 || locks_.heldCount() != 0)
        return false;
    // Hedged records can outlive their user completion (a pending
    // deadline timer keeps the op alive); drain them too, so failure
    // injection and verification never race a live hedge.
    if (hedgedLive_ != 0)
        return false;
    if (cpu_ && (cpu_->busy() || cpu_->queued() != 0))
        return false;
    for (const auto &d : disks_)
        if (d->outstanding() != 0)
            return false;
    return true;
}

void
ArrayController::failDisk(int disk)
{
    if (disk < 0 || disk >= numDisks())
        DECLUST_FATAL("failDisk: bad disk id ", disk, " (array has ",
                      numDisks(), " disks)");
    if (disk == failedDisk_)
        DECLUST_FATAL("failDisk: disk ", disk, " is already failed");
    if (failedDisk_ >= 0)
        DECLUST_FATAL("failDisk: disk ", failedDisk_,
                      " already failed: use failSecondDisk() to model a "
                      "failure during repair");
    if (copybackActive_)
        DECLUST_FATAL("failDisk: copyback in progress; finish copying "
                      "spare units home before failing disk ", disk);
    if (remapActive_)
        DECLUST_FATAL("failDisk: units still remapped to spares: copy "
                      "back before surviving another failure");
    if (!quiescent())
        DECLUST_FATAL("failDisk requires a quiescent array (drain first)");
    failedDisk_ = disk;
    reconActive_ = false;
    contents_.poisonDisk(disk);
}

void
ArrayController::failSecondDisk(int disk)
{
    if (failedDisk_ < 0)
        DECLUST_FATAL("failSecondDisk: no first failure is outstanding "
                      "(use failDisk() for the initial failure)");
    if (disk < 0 || disk >= numDisks())
        DECLUST_FATAL("failSecondDisk: bad disk id ", disk,
                      " (array has ", numDisks(), " disks)");
    if (disk == failedDisk_)
        DECLUST_FATAL("failSecondDisk: disk ", disk,
                      " is already the failed disk");
    if (secondFailedDisk_ >= 0)
        DECLUST_FATAL("failSecondDisk: disk ", secondFailedDisk_,
                      " already failed second; a single-failure-"
                      "correcting array cannot track a third failure");
    secondFailedDisk_ = disk;
    // Unlike the first (quiescent) failure, the disk dies live: queued
    // requests complete immediately with DiskFailed, the in-flight one
    // at its scheduled time.
    disks_[static_cast<std::size_t>(disk)]->fail();
    contents_.poisonDisk(disk);

    // Every stripe that now misses two units is gone. One batch of
    // losses from one disk failure is one data-loss event.
    bool anyLost = false;
    const int G = layout_->stripeWidth();
    for (int off = 0; off < unitsPerDisk(); ++off) {
        const auto su = layout_->invert(disk, off);
        if (!su)
            continue;
        if (su->pos >= G) {
            // A spare unit on the dead disk: if a rebuilt copy of the
            // first disk's unit lived there, that copy is gone again.
            if (!reconActive_ || !distributedSpare_)
                continue;
            for (int pos = 0; pos < G; ++pos) {
                const PhysicalUnit pu = layout_->place(su->stripe, pos);
                if (pu.disk != failedDisk_)
                    continue;
                if (reconstructed_[static_cast<std::size_t>(pu.offset)] ==
                    kRebuilt) {
                    markReconstructionLost(pu.offset);
                    if (markStripeUnrecoverable(su->stripe))
                        anyLost = true;
                }
                break;
            }
            continue;
        }
        // A live stripe member on the dead disk: the stripe is doomed
        // iff it also has a (still-lost) unit on the first failed disk.
        for (int pos = 0; pos < G; ++pos) {
            if (pos == su->pos)
                continue;
            const PhysicalUnit pu = layout_->place(su->stripe, pos);
            if (pu.disk != failedDisk_)
                continue;
            if (unitLost(pu)) {
                if (reconActive_)
                    markReconstructionLost(pu.offset);
                if (markStripeUnrecoverable(su->stripe))
                    anyLost = true;
            }
            break;
        }
    }
    if (anyLost)
        ++faultStats_.dataLossEvents;
}

void
ArrayController::attachFaultModels(const FaultConfig &config)
{
    for (int d = 0; d < numDisks(); ++d)
        disks_[static_cast<std::size_t>(d)]->setFaultModel(
            std::make_unique<FaultModel>(
                config, params_.geometry.totalSectors(), d));
}

void
ArrayController::beginFailSlow(int disk, const FailSlowConfig &slow)
{
    if (disk < 0 || disk >= numDisks())
        DECLUST_FATAL("fail-slow: bad disk id ", disk, " (array has ",
                      numDisks(), " disks)");
    if (disk == failedDisk_ || disk == secondFailedDisk_)
        DECLUST_FATAL("fail-slow: disk ", disk,
                      " has already hard-failed; a dead disk cannot "
                      "degrade");
    disks_[static_cast<std::size_t>(disk)]->beginFailSlow(slow);
}

void
ArrayController::scrubUnit(std::int64_t stripe, int pos,
                           std::function<void(CycleResult)> done)
{
    if (stripe < 0 || stripe >= layout_->numStripes())
        DECLUST_FATAL("scrub: bad stripe ", stripe, " (array has ",
                      layout_->numStripes(), " stripes)");
    if (pos < 0 || pos >= layout_->stripeWidth())
        DECLUST_FATAL("scrub: bad stripe position ", pos,
                      " (stripes are ", layout_->stripeWidth(),
                      " units wide)");
    const PhysicalUnit pu = effectiveUnit(stripe, pos);
    if (pu.disk == failedDisk_ || pu.disk == secondFailedDisk_)
        DECLUST_FATAL("scrub: stripe ", stripe, " pos ", pos,
                      " lives on failed disk ", pu.disk,
                      "; scrubbing needs a live disk");
    IoOp *op = ops_.acquire();
    op->ctl = this;
    op->su = StripeUnit{stripe, pos};
    op->dst0 = pu;
    op->cycleDone = std::move(done);
    IoSteps::startScrub(op);
}

void
ArrayController::attachCommon(ReconAlgorithm algorithm)
{
    DECLUST_ASSERT(failedDisk_ >= 0, "no failed disk to replace");
    DECLUST_ASSERT(!reconActive_, "reconstruction already running");
    algorithm_ = algorithm;
    reconActive_ = true;
    DECLUST_ANALYZE_SUPPRESS(
        "hot-path-growth: rebuild-start bookkeeping runs once per "
        "spare attach (reachable from the cluster advance loop only "
        "through ClusterRunner's rare begin-rebuild barrier event), "
        "never in per-request steady state");
    reconstructed_.assign(static_cast<std::size_t>(unitsPerDisk()),
                          kNotRebuilt);
    reconstructedCount_ = 0;
    reconLostCount_ = 0;
    mappedOnFailed_ = 0;
    for (int off = 0; off < unitsPerDisk(); ++off) {
        const auto su = layout_->invert(failedDisk_, off);
        // Spare units (pos == stripeWidth()) hold no protected data and
        // are not reconstructible.
        if (su && su->pos < layout_->stripeWidth())
            ++mappedOnFailed_;
    }
}

void
ArrayController::attachReplacement(ReconAlgorithm algorithm)
{
    DECLUST_ASSERT(failedDisk_ >= 0, "no failed disk to replace");
    // A disk that died live (second failure, later promoted to be the
    // outstanding one) is swapped for a fresh drive here.
    if (disks_[static_cast<std::size_t>(failedDisk_)]->failed())
        disks_[static_cast<std::size_t>(failedDisk_)]->replace();
    contents_.blankDisk(failedDisk_);
    distributedSpare_ = false;
    attachCommon(algorithm);
}

void
ArrayController::attachDistributedSpare(ReconAlgorithm algorithm)
{
    DECLUST_ASSERT(layout_->hasSpareUnits(),
                   "this layout has no distributed spare units");
    DECLUST_ASSERT(!remapActive_, "spares already in use");
    distributedSpare_ = true;
    attachCommon(algorithm);
}

bool
ArrayController::isReconstructed(int offset) const
{
    DECLUST_ASSERT(reconActive_, "no reconstruction in progress");
    return reconstructed_[static_cast<std::size_t>(offset)] != 0;
}

std::int64_t
ArrayController::unrecoverableStripesIf(int secondDisk) const
{
    DECLUST_ASSERT(failedDisk_ >= 0, "no failed disk");
    DECLUST_ASSERT(secondDisk >= 0 && secondDisk < numDisks() &&
                       secondDisk != failedDisk_,
                   "second disk must be a different live disk");
    std::int64_t lost = 0;
    for (int off = 0; off < unitsPerDisk(); ++off) {
        const auto su = layout_->invert(failedDisk_, off);
        if (!su)
            continue;
        if (reconActive_ && reconstructed_[static_cast<std::size_t>(off)])
            continue; // this unit is already safe on the replacement
        for (int pos = 0; pos < layout_->stripeWidth(); ++pos) {
            if (pos == su->pos)
                continue;
            if (layout_->place(su->stripe, pos).disk == secondDisk) {
                ++lost;
                break;
            }
        }
    }
    return lost;
}

void
ArrayController::markReconstructed(int offset)
{
    DECLUST_ASSERT(reconActive_, "no reconstruction in progress");
    auto &flag = reconstructed_[static_cast<std::size_t>(offset)];
    if (flag == kNotRebuilt) {
        flag = kRebuilt;
        ++reconstructedCount_;
    }
}

void
ArrayController::reconstructOffset(int offset,
                                   std::function<void(CycleResult)> done)
{
    DECLUST_ASSERT(reconActive_, "no reconstruction in progress");
    DECLUST_ASSERT(offset >= 0 && offset < unitsPerDisk(),
                   "offset out of range");

    const auto su = layout_->invert(failedDisk_, offset);
    if (!su || su->pos >= layout_->stripeWidth() ||
        reconstructed_[static_cast<std::size_t>(offset)]) {
        // Unmapped, a spare unit (nothing to regenerate), or already
        // rebuilt by user activity.
        done(CycleResult{});
        return;
    }

    IoOp *op = ops_.acquire();
    op->ctl = this;
    op->su = *su;
    op->offset = offset;
    op->cycleDone = std::move(done);
    IoSteps::regenerate(op, RegenFlow::Recon);
}

void
ArrayController::finishReconstruction()
{
    DECLUST_ASSERT(reconActive_, "no reconstruction in progress");
    DECLUST_ASSERT(reconstructedCount_ + reconLostCount_ == mappedOnFailed_,
                   "reconstruction incomplete: ", reconstructedCount_,
                   " rebuilt + ", reconLostCount_, " lost of ",
                   mappedOnFailed_, " units");
    // Verify every rebuilt unit before declaring the array healthy.
    // Unrecoverable stripes are exempt: their contents are gone by
    // definition and the array continues around them.
    for (int off = 0; off < unitsPerDisk(); ++off) {
        const auto su = layout_->invert(failedDisk_, off);
        if (!su || su->pos >= layout_->stripeWidth())
            continue; // unmapped or a (data-free) spare unit
        if (stripeUnrecoverable(su->stripe) ||
            reconstructed_[static_cast<std::size_t>(off)] == kLostForever)
            continue;
        const PhysicalUnit home = effectiveUnit(su->stripe, su->pos);
        const UnitValue stored = contents_.get(home.disk, home.offset);
        // A stripe with another unit on the second failed disk cannot be
        // parity-checked until that repair runs; the rebuilt unit itself
        // is still checked against the shadow below.
        if (secondFailedDisk_ < 0 ||
            stripeRecoverableExcept(su->stripe, su->pos)) {
            const UnitValue implied = xorStripeExcept(su->stripe, su->pos);
            DECLUST_ASSERT(stored == implied,
                           "reconstructed unit at offset ", off,
                           " disagrees with parity");
        }
        if (su->pos < layout_->dataUnitsPerStripe()) {
            DECLUST_ASSERT(stored ==
                               shadow_.get(layout_->stripeToDataUnit(*su)),
                           "reconstructed data unit at offset ", off,
                           " disagrees with shadow contents");
        }
    }
    if (distributedSpare_) {
        // Rebuilt units keep living in their spares until copyback.
        remapActive_ = true;
        remapDisk_ = failedDisk_;
        remappedCount_ = reconstructedCount_;
        reconActive_ = false;
        failedDisk_ = -1;
        // reconstructed_ is retained: it is now the remap marker (lost
        // offsets hold kLostForever and are skipped by copyback, which
        // only copies kRebuilt units home).
        for (auto &flag : reconstructed_)
            if (flag == kLostForever)
                flag = kNotRebuilt;
    } else {
        reconActive_ = false;
        failedDisk_ = -1;
        reconstructed_.clear();
    }
    if (secondFailedDisk_ >= 0) {
        // The repair of the first disk is done; the second failure now
        // becomes "the" outstanding failure awaiting its own repair.
        failedDisk_ = secondFailedDisk_;
        secondFailedDisk_ = -1;
    }
}

void
ArrayController::beginCopyback()
{
    DECLUST_ASSERT(remapActive_, "no spare remap to copy back");
    DECLUST_ASSERT(!copybackActive_, "copyback already running");
    DECLUST_ASSERT(failedDisk_ < 0 && !reconActive_,
                   "cannot copy back during a failure");
    // A fresh replacement drive arrives blank.
    contents_.blankDisk(remapDisk_);
    copybackActive_ = true;
}

void
ArrayController::copybackOffset(int offset, std::function<void(bool)> done)
{
    DECLUST_ASSERT(copybackActive_, "beginCopyback() first");
    DECLUST_ASSERT(offset >= 0 && offset < unitsPerDisk(),
                   "offset out of range");
    const auto su = layout_->invert(remapDisk_, offset);
    if (!su || su->pos >= layout_->stripeWidth() ||
        !reconstructed_[static_cast<std::size_t>(offset)]) {
        done(false);
        return;
    }
    IoOp *op = ops_.acquire();
    op->ctl = this;
    op->su = *su;
    op->offset = offset;
    op->copyDone = std::move(done);
    IoSteps::lockThen(op, LockStep::Copyback);
}

void
ArrayController::finishCopyback()
{
    DECLUST_ASSERT(copybackActive_, "no copyback in progress");
    DECLUST_ASSERT(remappedCount_ == 0, "copyback incomplete: ",
                   remappedCount_, " units still remapped");
    copybackActive_ = false;
    remapActive_ = false;
    remapDisk_ = -1;
    reconstructed_.clear();
}

// ----------------------------------------------------------------------
// Statistics and verification
// ----------------------------------------------------------------------

void
ArrayController::setAccessTracer(AccessTracer tracer)
{
    for (auto &disk : disks_)
        disk->setTracer(tracer);
}

void
ArrayController::resetStats()
{
    stats_ = UserStats(params_.histogramLimitMs, params_.histogramBuckets);
    for (auto &d : disks_)
        d->resetStats();
    if (cpu_)
        cpu_->resetWindow();
}

void
ArrayController::verifyConsistency() const
{
    DECLUST_ASSERT(quiescent(), "verifyConsistency requires quiescence");
    const int G = layout_->stripeWidth();
    const int dus = layout_->dataUnitsPerStripe();
    for (std::int64_t s = 0; s < layout_->numStripes(); ++s) {
        if (stripeUnrecoverable(s))
            continue; // contents are gone by definition
        bool stripeIntact = true;
        int lostPos = -1;
        int lostCount = 0;
        for (int pos = 0; pos < G; ++pos) {
            const PhysicalUnit pu = layout_->place(s, pos);
            if (unitLost(pu)) {
                stripeIntact = false;
                lostPos = pos;
                ++lostCount;
            }
        }
        DECLUST_ASSERT(lostCount <= 1, "stripe ", s, " misses ",
                       lostCount, " units but is not marked "
                       "unrecoverable");
        if (stripeIntact) {
            DECLUST_ASSERT(xorStripeExcept(s, -1) == 0,
                           "stripe ", s, " fails the parity invariant");
            for (int pos = 0; pos < dus; ++pos) {
                const PhysicalUnit pu = effectiveUnit(s, pos);
                DECLUST_ASSERT(
                    contents_.get(pu.disk, pu.offset) ==
                        shadow_.get(layout_->stripeToDataUnit(
                            StripeUnit{s, pos})),
                    "data unit (stripe ", s, ", pos ", pos,
                    ") disagrees with shadow");
            }
        } else if (lostPos < dus) {
            // Lost data unit: its parity-implied value must match shadow.
            DECLUST_ASSERT(
                xorStripeExcept(s, lostPos) ==
                    shadow_.get(layout_->stripeToDataUnit(
                        StripeUnit{s, lostPos})),
                "implied value of lost unit in stripe ", s,
                " disagrees with shadow");
        }
        // Lost parity unit: nothing further to check.
    }
}

} // namespace declust
