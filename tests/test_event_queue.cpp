/**
 * @file
 * Lockstep property tests for the event queue against a reference
 * model.
 *
 * The determinism contract says events dispatch in strict (when, seq)
 * order: earliest tick first, FIFO among events scheduled for the same
 * tick, with a release-mode clamp for scheduling into the past. The
 * reference model below is a second, deliberately naive implementation
 * of that contract — an ordered map keyed by (when, seq) — and these
 * tests replay identical seeded scripts against it and against
 * EventQueue: schedule bursts (same-tick ties, near, far-future and
 * past events), single steps, horizon runs and predicate runs, with
 * callbacks that schedule further events during their own dispatch so
 * freed callback slots are reused at once. The dispatch streams, and
 * the clock, pending count and executed count after every operation,
 * must match exactly. The scripts grow the pending set far past the
 * queue's reserve().
 *
 * A past event is clamped to now() in release builds; debug and
 * validation builds reject it with InternalError, and the logs then
 * show that the rejection left the pending set untouched. In
 * validation builds every dispatch also passes the queue's (when, seq)
 * ordering audit.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "util/error.hpp"
#include "util/validate.hpp"

namespace declust {
namespace {

/** True where scheduling into the past clamps instead of panicking. */
constexpr bool
pastScheduleClamps()
{
#if !DECLUST_VALIDATE && defined(NDEBUG)
    return true;
#else
    return false;
#endif
}

/** The contract, spelled out: an ordered map keyed by (when, seq). */
class ReferenceQueue
{
  public:
    Tick now() const { return now_; }
    std::size_t pending() const { return pending_.size(); }
    std::uint64_t executed() const { return executed_; }
    void reserve(std::size_t) {}

    void
    scheduleAt(Tick when, EventCallback cb)
    {
        if (when < now_) {
            if (!pastScheduleClamps())
                throw InternalError("scheduling into the past");
            when = now_;
        }
        pending_.emplace(std::make_pair(when, nextSeq_++), std::move(cb));
    }

    bool
    step()
    {
        if (pending_.empty())
            return false;
        const auto first = pending_.begin();
        now_ = first->first.first;
        EventCallback cb = std::move(first->second);
        pending_.erase(first);
        ++executed_;
        cb();
        return true;
    }

    void
    runUntil(Tick until)
    {
        while (!pending_.empty() && pending_.begin()->first.first <= until)
            step();
        if (now_ < until)
            now_ = until;
    }

    bool
    runUntilCondition(const std::function<bool()> &done)
    {
        if (done())
            return true;
        while (step()) {
            if (done())
                return true;
        }
        return false;
    }

  private:
    std::map<std::pair<Tick, std::uint64_t>, EventCallback> pending_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

/** One operation of a pre-generated script. */
struct Op
{
    enum Kind
    {
        Schedule,  ///< schedule one event per entry of `delays`
        Step,      ///< step() `count` times
        RunUntil,  ///< runUntil(now + horizon)
        RunUntilN, ///< runUntilCondition: stop after `count` dispatches
    };
    Kind kind = Schedule;
    int count = 0;
    Tick horizon = 0;
    /** Signed offsets from now(); negative ones schedule into the past. */
    std::vector<std::int64_t> delays;
};

/**
 * Generate a script from @p seed. The script is drawn up front, and
 * events' children are a pure function of their id, so both queues see
 * the very same operations.
 */
std::vector<Op>
makeScript(std::uint64_t seed, int rounds, int maxBurst)
{
    Rng rng(seed);
    std::vector<Op> script;
    for (int r = 0; r < rounds; ++r) {
        const double pick = rng.uniform();
        Op op;
        if (pick < 0.45) {
            op.kind = Op::Schedule;
            const int count =
                1 + static_cast<int>(rng.uniformInt(
                        static_cast<std::uint64_t>(maxBurst)));
            const bool sameTickBurst = rng.bernoulli(0.15);
            for (int i = 0; i < count; ++i) {
                const double kind = rng.uniform();
                std::int64_t delay;
                if (sameTickBurst || kind < 0.25) {
                    delay = 0;
                } else if (kind < 0.55) {
                    delay = static_cast<std::int64_t>(rng.uniformInt(64));
                } else if (kind < 0.88) {
                    delay = static_cast<std::int64_t>(
                        rng.exponential(5000.0));
                } else if (kind < 0.95) {
                    delay = (std::int64_t{1} << 44) +
                            static_cast<std::int64_t>(
                                rng.uniformInt(1u << 20));
                } else {
                    delay = -1 - static_cast<std::int64_t>(
                                     rng.uniformInt(50));
                }
                op.delays.push_back(delay);
            }
        } else if (pick < 0.70) {
            op.kind = Op::Step;
            op.count = 1 + static_cast<int>(rng.uniformInt(16));
        } else if (pick < 0.88) {
            op.kind = Op::RunUntil;
            op.horizon = rng.uniformInt(20000);
        } else {
            op.kind = Op::RunUntilN;
            op.count = static_cast<int>(rng.uniformInt(40));
        }
        script.push_back(std::move(op));
    }
    return script;
}

/** A dispatch or rejection (now, id, marker), or a post-operation
 * (now, pending, executed). */
using Record = std::array<std::uint64_t, 3>;

constexpr std::uint64_t kDispatched = ~std::uint64_t{0};
constexpr std::uint64_t kRejected = ~std::uint64_t{1};

/** Runs one queue through a script and records what it observes. */
template <typename Queue>
class ScriptRunner
{
  public:
    explicit ScriptRunner(std::size_t reserveHint)
    {
        q_.reserve(reserveHint);
    }

    std::vector<Record>
    run(const std::vector<Op> &script)
    {
        for (const Op &op : script) {
            apply(op);
            log_.push_back({q_.now(), q_.pending(), q_.executed()});
        }
        while (q_.step()) {
        }
        log_.push_back({q_.now(), q_.pending(), q_.executed()});
        return std::move(log_);
    }

  private:
    void
    apply(const Op &op)
    {
        switch (op.kind) {
        case Op::Schedule:
            for (const std::int64_t delay : op.delays) {
                // Clamp at tick 0 so a "past" event is only ever before
                // now, never a wrapped-around far-future tick.
                const std::int64_t at =
                    static_cast<std::int64_t>(q_.now()) + delay;
                schedule(static_cast<Tick>(at < 0 ? 0 : at), 2);
            }
            break;
        case Op::Step:
            for (int i = 0; i < op.count; ++i)
                q_.step();
            break;
        case Op::RunUntil:
            q_.runUntil(q_.now() + op.horizon);
            break;
        case Op::RunUntilN: {
            const std::uint64_t target = dispatched_ + op.count;
            q_.runUntilCondition([&] { return dispatched_ >= target; });
            break;
        }
        }
    }

    void
    schedule(Tick when, int generations)
    {
        const std::uint64_t id = nextId_++;
        try {
            q_.scheduleAt(when, [this, id, generations] {
                fire(id, generations);
            });
        } catch (const InternalError &) {
            log_.push_back({q_.now(), id, kRejected});
        }
    }

    /** Record the dispatch; every third event schedules a child from
     * inside its own dispatch, often for the same tick. */
    void
    fire(std::uint64_t id, int generations)
    {
        log_.push_back({q_.now(), id, kDispatched});
        ++dispatched_;
        if (generations > 0 && id % 3 == 0) {
            const std::uint64_t h = id * 0x9e3779b97f4a7c15ull;
            const Tick delay = (h >> 60) < 6 ? 0 : (h >> 40) % 3000;
            schedule(q_.now() + delay, generations - 1);
        }
    }

    Queue q_;
    std::vector<Record> log_;
    std::uint64_t nextId_ = 0;
    std::uint64_t dispatched_ = 0;
};

/** Replay @p script on both queues; the logs must match exactly. */
void
expectLockstep(const std::vector<Op> &script, std::size_t reserveHint,
               std::uint64_t seed)
{
    const std::vector<Record> model =
        ScriptRunner<ReferenceQueue>(reserveHint).run(script);
    const std::vector<Record> queue =
        ScriptRunner<EventQueue>(reserveHint).run(script);
    ASSERT_EQ(queue.size(), model.size()) << "seed " << seed;
    for (std::size_t i = 0; i < model.size(); ++i) {
        ASSERT_EQ(queue[i], model[i])
            << "seed " << seed << ": logs diverge at record " << i
            << ": queue (" << queue[i][0] << ", " << queue[i][1] << ", "
            << queue[i][2] << ") vs reference (" << model[i][0] << ", "
            << model[i][1] << ", " << model[i][2] << ")";
    }
}

TEST(EventQueueLockstep, RandomizedInterleavingsAgreeAcrossImpls)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        expectLockstep(makeScript(0xec0de000 + seed, 400, 24), 16,
                       0xec0de000 + seed);
}

TEST(EventQueueLockstep, LongRunWithLargePopulationAgrees)
{
    // Bursts of up to 200 events against a reserve of 8: the heap, the
    // callback slots and the free list all grow many times over.
    expectLockstep(makeScript(0xb16badu, 2500, 200), 8, 0xb16badu);
}

TEST(EventQueueLockstep, EventsSchedulingEventsAgreeAcrossImpls)
{
    // Chains of self-scheduling callbacks (the simulator's normal mode:
    // an event's continuation schedules the next hop), compared as full
    // streams. Fixed-depth chains keep both runs' Rng draws identical.
    auto run = [](auto &eq) {
        Rng rng(0x5eed);
        std::vector<std::pair<Tick, int>> stream;
        int nextId = 0;
        std::function<void(int)> chain = [&](int depth) {
            const int id = nextId++;
            const Tick delay = rng.uniformInt(128);
            eq.scheduleAt(eq.now() + delay, [&, id, depth] {
                stream.emplace_back(eq.now(), id);
                if (depth > 0)
                    chain(depth - 1);
            });
        };
        for (int i = 0; i < 200; ++i)
            chain(static_cast<int>(rng.uniformInt(6)));
        while (eq.step()) {
        }
        return stream;
    };
    EventQueue eq;
    ReferenceQueue ref;
    EXPECT_EQ(run(eq), run(ref));
}

TEST(EventQueueLockstep, RunUntilParityAcrossImpls)
{
    // Clock advancement semantics (idle time passing, horizon-inclusive
    // dispatch) must match, not just dispatch order.
    auto run = [](auto &eq) {
        std::vector<Tick> clocks;
        std::uint64_t ran = 0;
        for (Tick t : {Tick{10}, Tick{20}, Tick{20}, Tick{35}, Tick{900}})
            eq.scheduleAt(t, [&ran] { ++ran; });
        for (Tick horizon : {Tick{5}, Tick{20}, Tick{50}, Tick{100}}) {
            eq.runUntil(horizon);
            clocks.push_back(eq.now());
        }
        while (eq.step()) {
        }
        clocks.push_back(eq.now());
        clocks.push_back(static_cast<Tick>(ran));
        clocks.push_back(static_cast<Tick>(eq.executed()));
        return clocks;
    };
    EventQueue eq;
    ReferenceQueue ref;
    const std::vector<Tick> clocks = run(eq);
    EXPECT_EQ(clocks, run(ref));
    EXPECT_EQ(clocks, (std::vector<Tick>{5, 20, 50, 100, 900, 5, 5}));
}

} // namespace
} // namespace declust
