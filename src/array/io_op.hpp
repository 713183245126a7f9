/**
 * @file
 * Pooled continuation object for the array controller's I/O spine.
 *
 * Every user request, reconstruction cycle, and copyback cycle is one
 * IoOp: a slab-pooled state-machine record that carries the flow —
 * locate → stripe-lock → fork reads → XOR → writes → release — through
 * plain function-pointer continuations instead of nested lambda
 * captures. The op doubles as the stripe lock's intrusive waiter (it
 * derives StripeLockTable::Waiter), so a contended acquire links the op
 * itself into the wait list. Once the per-controller pool is warm, a
 * steady-state user I/O performs no heap allocation at all (the
 * allocation-guard test in tests/test_alloc_guard.cpp enforces this).
 *
 * Lifecycle: acquired from IoOpPool at the operation's entry point,
 * released exactly once when its flow ends. A multi-unit request uses
 * one parent op (holding the user's `done` and the part fan-in count)
 * plus one part op per stripe-level sub-operation; parts signal the
 * parent and are released independently. Ops are thread-confined, like
 * the SlabPool underneath.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <new>

#include "array/stripe_lock.hpp"
#include "array/types.hpp"
#include "disk/fault_model.hpp"
#include "layout/layout.hpp"
#include "sim/slab_pool.hpp"
#include "sim/time.hpp"
#include "stats/perf_counters.hpp"
#include "util/annotations.hpp"
#include "util/validate.hpp"

namespace declust {

class ArrayController;

/** What an op does once it holds its stripe lock (IoSteps::lockThen). */
enum class LockStep : std::uint8_t
{
    Write,      ///< a single-unit write's critical section
    LargeWrite, ///< a whole-stripe write
    Regenerate, ///< the regenerate chain (see RegenFlow)
    Copyback,   ///< one copyback cycle
};

/** The flows that regenerate a unit from its stripe's survivors
 * (IoSteps::regenerate). */
enum class RegenFlow : std::uint8_t
{
    DegradedRead,
    ReadRepair,
    Hedge,
    Recon,
    ScrubRepair,
};

/** One in-flight controller operation (user part, recon/copyback cycle). */
struct IoOp : StripeLockTable::Waiter
{
    ArrayController *ctl = nullptr;
    /** Owning multi-unit op, or null when this op stands alone. */
    IoOp *parent = nullptr;
    /** Fan-in counter: outstanding forks (parts for a parent op, disk
     * completions for a leaf op's current phase). */
    int pending = 0;
    RequestKind kind = RequestKind::Read;
    /** Failed-disk offset (reconstruction / copyback cycles). */
    int offset = 0;
    /** Op start (user ops) or read-phase start (recon cycles). */
    Tick start = 0;
    /** Scratch timestamp: lock-wait start, then write-phase start. */
    Tick mid = 0;
    /** Logical target unit and its layout placement. */
    StripeUnit su;
    PhysicalUnit data;
    /** Flow-specific physical destinations (see controller.cpp). */
    PhysicalUnit dst0;
    PhysicalUnit dst1;
    PhysicalUnit dst2;
    std::int64_t dataUnit = 0;
    /** New/reconstructed data value. The XOR staging values feed the
     * value-level parity math; with the data plane enabled the same
     * combines are replayed over real bytes and cross-checked at the
     * controller's combine sites (see ArrayController::checkCombine). */
    UnitValue v = 0;
    /** Secondary value (new parity). */
    UnitValue aux = 0;
    /** Worst disk-completion status seen by the current phase (reset
     * when a step re-forks; see IoSteps::noteStatus). */
    IoStatus status = IoStatus::Ok;
    /** Read-repair bookkeeping: true when the failed home read was a
     * medium error, so the recovered value must be rewritten to the
     * (remapped) home sector. */
    bool repairRewrite = false;
    /** Step to run once the stripe lock is held. */
    LockStep lockStep = LockStep::Write;
    /** Flow served by the regenerate chain (LockStep::Regenerate). */
    RegenFlow regen = RegenFlow::DegradedRead;
    /** A single-unit write's plan (kWrite* bits in controller.cpp). */
    std::uint8_t writePlan = 0;
    /** Hedged-read lifetime: obligations (deadline timer, hedge chain)
     * that keep this op alive beyond its user-visible flow. The op is
     * recycled only when the primary flow has ended AND every hold has
     * been dropped (see IoSteps::opRelease / dropHold). */
    std::uint8_t hedgeHolds = 0;
    /** Hedge state bits (kHedge* constants in controller.cpp). */
    std::uint8_t hedgeFlags = 0;
    /** User completion (small captures stay inline in std::function). */
    std::function<void()> done;
    std::function<void(CycleResult)> cycleDone;
    std::function<void(bool)> copyDone;
};

/** Slab-backed pool of IoOps; steady state never touches the heap. */
class IoOpPool
{
  public:
    IoOp *
    acquire()
    {
        DECLUST_PERF_INC(IoOpAcquired);
        const std::size_t slabs = pool_.slabCount();
        void *mem = pool_.allocate();
        if (pool_.slabCount() != slabs)
            DECLUST_PERF_INC(IoOpSlabs);
        return new (mem) IoOp;
    }

    void
    release(IoOp *op)
    {
        // The liveness check must precede the destructor: destroying an
        // already-released op would run ~IoOp over poisoned memory.
        DECLUST_VALIDATE_CHECK(pool_.ownsLive(op),
                               "IoOp released twice (or foreign pointer) "
                               "at ", static_cast<void *>(op));
        DECLUST_PERF_INC(IoOpReleased);
        op->~IoOp();
        pool_.deallocate(op);
    }

    /** Ops currently live (diagnostics). */
    std::size_t live() const { return pool_.liveChunks(); }

#if DECLUST_VALIDATE
    /** True if @p op is a currently-live op of this pool. */
    bool isLive(const IoOp *op) const { return pool_.ownsLive(op); }
#endif

  private:
    SlabPool pool_{sizeof(IoOp), 128};
};

} // namespace declust
