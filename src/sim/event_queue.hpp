/**
 * @file
 * Deterministic event-driven simulation engine.
 *
 * Events are closures scheduled at absolute ticks; ties are broken by
 * insertion order so a given seed always replays identically. This is
 * the lowest layer of the simulator, standing in for raidSim's event
 * core.
 *
 * The pending set is a 4-ary min-heap of small POD keys — (when, seq,
 * slot), 24 bytes — over a pool of EventCallback slots with a free
 * list. Sifts copy keys only; a callback is touched twice, moved into
 * its slot on schedule and moved out on dispatch, so an event's 64-byte
 * callback never travels through the heap. A node's four children are
 * adjacent, which halves the depth of a binary heap for the same
 * comparison count.
 *
 * The ordering CONTRACT is strict (when, seq) order: earliest tick
 * first, FIFO among events scheduled for the same tick (seq is assigned
 * in scheduling order). Every golden table depends on it;
 * tests/test_event_queue.cpp checks randomized scripts against a sorted
 * (when, seq) reference model.
 *
 * Callbacks are EventCallback (sim/callback.hpp): 48 bytes of inline
 * capture storage, so scheduling an event performs no heap allocation
 * in the common case; the heap, the slot pool and the free list keep
 * their capacity, and reserve() pre-sizes all three so bring-up does
 * not pay growth reallocations either.
 *
 * Validation builds (-DDECLUST_VALIDATE=ON) audit the contract at run
 * time: scheduling into the past is a fatal diagnostic rather than a
 * release-mode clamp, and every dispatch is checked against the
 * previously dispatched (when, seq) pair — a queue bug that reordered
 * same-tick events or ran an event before its scheduler panics at the
 * first out-of-order pop instead of silently skewing a published table.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"
#include "util/annotations.hpp"
#include "util/validate.hpp"

namespace declust {

/** Priority queue of timed callbacks with a simulated clock. */
class EventQueue
{
  public:
    using Callback = EventCallback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p cb at absolute time @p when (>= now). Scheduling into
     * the past is a causality violation: debug builds panic, release
     * builds clamp @p when to now() so simulated time never runs
     * backwards and determinism is preserved.
     */
    DECLUST_HOT_PATH
    void scheduleAt(Tick when, Callback cb);

    /** Schedule @p cb @p delay ticks from now. */
    DECLUST_HOT_PATH
    void scheduleIn(Tick delay, Callback cb);

    /** True if no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    size_t pending() const { return heap_.size(); }

    /**
     * Pre-size the heap, the callback slots and the free list for an
     * expected steady-state population so bring-up does not pay growth
     * reallocations. Array bring-up (ArrayController) calls this with
     * its queue-depth estimate.
     */
    void reserve(std::size_t expectedPending);

    /** Pop and run the single earliest event. @return false if empty. */
    DECLUST_HOT_PATH
    bool step();

    /**
     * Run until the queue drains or simulated time would exceed @p until.
     * Events scheduled exactly at @p until still run. The clock is left at
     * min(until, time of last executed event).
     */
    void runUntil(Tick until);

    /** Run until the queue is completely empty. */
    void runToCompletion();

    /**
     * Run until @p done returns true (checked after each event) or the
     * queue drains. @return true if the predicate was satisfied.
     */
    bool runUntilCondition(const std::function<bool()> &done);

    /** Total number of events executed since construction. */
    std::uint64_t executed() const { return executed_; }

  private:
    /** Heap entry: dispatch order plus the slot holding the callback. */
    struct Key
    {
        Tick when;
        std::uint64_t seq; // tie-break: FIFO among same-tick events
        std::uint32_t slot;
    };

    /** Strict (when, seq) order — the determinism contract. */
    static bool
    before(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** Insert @p key: hole-based sift-up. */
    DECLUST_HOT_PATH
    void push(Key key);

    /** Remove and return the minimum key. Requires !empty(). */
    DECLUST_HOT_PATH
    Key pop();

    /** Park @p cb in a free slot (growing the pool if none is free). */
    std::uint32_t acquireSlot(Callback &&cb);

    static constexpr std::size_t kArity = 4;

    std::vector<Key> heap_;
    std::vector<EventCallback> slots_;
    /** Indices of empty slots; capacity >= slots_.size() always, so
     * releasing a slot never reallocates. */
    std::vector<std::uint32_t> free_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;

#if DECLUST_VALIDATE
    /** Last dispatched (when, seq), for strict monotonicity audits. */
    Tick lastWhen_ = 0;
    std::uint64_t lastSeq_ = 0;
    bool dispatchedAny_ = false;
#endif
};

} // namespace declust
