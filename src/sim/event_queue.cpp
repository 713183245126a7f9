#include "sim/event_queue.hpp"

#include <utility>

#include "sim/callback.hpp"
#include "sim/time.hpp"
#include "util/annotations.hpp"
#include "util/error.hpp"
#include "util/validate.hpp"

namespace declust {

void
EventQueue::reserve(std::size_t expectedPending)
{
    DECLUST_ANALYZE_SUPPRESS("hot-path-growth: this IS the pre-sizing hook");
    heap_.reserve(expectedPending);
    DECLUST_ANALYZE_SUPPRESS("hot-path-growth: this IS the pre-sizing hook");
    slots_.reserve(expectedPending);
    DECLUST_ANALYZE_SUPPRESS("hot-path-growth: this IS the pre-sizing hook");
    free_.reserve(expectedPending);
}

std::uint32_t
EventQueue::acquireSlot(Callback &&cb)
{
    if (!free_.empty()) {
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        slots_[slot] = std::move(cb);
        return slot;
    }
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    DECLUST_ANALYZE_SUPPRESS(
        "hot-path-growth: the pool only grows to the peak pending "
        "population; steady state reuses freed slots");
    slots_.push_back(std::move(cb));
    if (free_.capacity() < slots_.capacity()) {
        DECLUST_ANALYZE_SUPPRESS(
            "hot-path-growth: keeps step()'s slot release from ever "
            "reallocating");
        free_.reserve(slots_.capacity());
    }
    return slot;
}

void
EventQueue::push(Key key)
{
    // Hole-based sift-up: shift ancestors down until the insertion point
    // is found, then place the key once.
    std::size_t hole = heap_.size();
    DECLUST_ANALYZE_SUPPRESS(
        "hot-path-growth: heap capacity is retained across pops; steady state "
        "never reallocates");
    heap_.push_back(key);
    Key *const h = heap_.data();
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / kArity;
        if (!before(key, h[parent]))
            break;
        h[hole] = h[parent];
        hole = parent;
    }
    h[hole] = key;
}

EventQueue::Key
EventQueue::pop()
{
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t size = heap_.size();
    if (size == 0)
        return top;
    // Hole-based sift-down of the former last key from the root.
    Key *const h = heap_.data();
    std::size_t hole = 0;
    for (;;) {
        const std::size_t first = hole * kArity + 1;
        if (first >= size)
            break;
        std::size_t best = first;
        const std::size_t end = first + kArity < size ? first + kArity : size;
        for (std::size_t c = first + 1; c < end; ++c) {
            if (before(h[c], h[best]))
                best = c;
        }
        if (!before(h[best], last))
            break;
        h[hole] = h[best];
        hole = best;
    }
    h[hole] = last;
    return top;
}

void
EventQueue::scheduleAt(Tick when, Callback cb)
{
    DECLUST_ASSERT(cb, "null event callback");
    if (when < now_) [[unlikely]] {
        // Causality violation: an event may never run before the event
        // that scheduled it. Validation builds treat this as fatal (a
        // clamped event still perturbs the schedule); debug builds
        // assert; release builds clamp to now so the clock cannot run
        // backwards and per-seed determinism survives.
        DECLUST_VALIDATE_CHECK(when >= now_,
                               "scheduling into the past: tick ", when,
                               " < now ", now_, " (seq ", nextSeq_, ")");
        DECLUST_DEBUG_ASSERT(when >= now_, "scheduling into the past: ",
                             when, " < ", now_);
        when = now_;
    }
    push(Key{when, nextSeq_++, acquireSlot(std::move(cb))});
}

void
EventQueue::scheduleIn(Tick delay, Callback cb)
{
    scheduleAt(now_ + delay, std::move(cb));
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    const Key top = pop();
#if DECLUST_VALIDATE
    // The dispatch stream must be strictly (when, seq)-increasing: any
    // violation means the heap lost an ordering (ties no longer FIFO) or
    // time ran backwards — either breaks byte-identical replay.
    DECLUST_VALIDATE_CHECK(top.when >= now_,
                           "dispatching event (tick ", top.when, ", seq ",
                           top.seq, ") into the past: now is ", now_);
    if (dispatchedAny_) {
        DECLUST_VALIDATE_CHECK(
            top.when > lastWhen_ ||
                (top.when == lastWhen_ && top.seq > lastSeq_),
            "(when, seq) dispatch order violated: (", top.when, ", ",
            top.seq, ") after (", lastWhen_, ", ", lastSeq_, ")");
    }
    lastWhen_ = top.when;
    lastSeq_ = top.seq;
    dispatchedAny_ = true;
#endif
    now_ = top.when;
    ++executed_;
    // Move the callback out and free its slot before running it: the
    // callback may schedule further events, which may reuse the slot or
    // grow the pool.
    EventCallback cb = std::move(slots_[top.slot]);
    DECLUST_ANALYZE_SUPPRESS(
        "hot-path-growth: free_ capacity tracks the pool (acquireSlot), so "
        "this never reallocates");
    free_.push_back(top.slot);
    cb();
    return true;
}

void
EventQueue::runUntil(Tick until)
{
    while (!heap_.empty() && heap_.front().when <= until)
        step();
    // No event before the horizon: idle time just passes.
    if (now_ < until)
        now_ = until;
}

void
EventQueue::runToCompletion()
{
    while (step()) {
    }
}

DECLUST_ANALYZE_SUPPRESS(
    "hot-path-function: harness-facing API, called once per simulation run, "
    "not per event");
bool
EventQueue::runUntilCondition(const std::function<bool()> &done)
{
    if (done())
        return true;
    while (step()) {
        if (done())
            return true;
    }
    return false;
}

} // namespace declust
