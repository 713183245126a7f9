/**
 * @file
 * Unit tests for the simulation core: event queue ordering, clock
 * semantics, RNG distributions, and the fork/join helper.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/seed.hpp"
#include "sim/serial_resource.hpp"
#include "sim/slab_pool.hpp"
#include "sim/time.hpp"
#include "util/validate.hpp"

namespace declust {
namespace {

TEST(Time, Conversions)
{
    EXPECT_EQ(msToTicks(1.0), kTicksPerMs);
    EXPECT_EQ(secToTicks(2.0), 2 * kTicksPerSec);
    EXPECT_DOUBLE_EQ(ticksToMs(1500), 1.5);
    EXPECT_DOUBLE_EQ(ticksToSec(kTicksPerSec / 2), 0.5);
    EXPECT_EQ(msToTicks(0.0001), Tick{0}); // sub-tick rounds down
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(30, [&] { order.push_back(3); });
    eq.scheduleAt(10, [&] { order.push_back(1); });
    eq.scheduleAt(20, [&] { order.push_back(2); });
    eq.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), Tick{30});
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueue, FifoWithinSameTick)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.scheduleAt(5, [&order, i] { order.push_back(i); });
    eq.runToCompletion();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 100)
            eq.scheduleIn(1, chain);
    };
    eq.scheduleIn(1, chain);
    eq.runToCompletion();
    EXPECT_EQ(count, 100);
    EXPECT_EQ(eq.now(), Tick{100});
}

TEST(EventQueue, RunUntilStopsAtHorizonAndAdvancesClock)
{
    EventQueue eq;
    int ran = 0;
    eq.scheduleAt(10, [&] { ++ran; });
    eq.scheduleAt(100, [&] { ++ran; });
    eq.runUntil(50);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eq.now(), Tick{50});
    EXPECT_EQ(eq.pending(), 1u);
    eq.runUntil(100); // event exactly at the horizon runs
    EXPECT_EQ(ran, 2);
}

TEST(EventQueue, SchedulingIntoThePastClampsOrPanics)
{
    EventQueue eq;
    eq.scheduleAt(10, [] {});
    eq.runToCompletion();
#if !DECLUST_VALIDATE && defined(NDEBUG)
    // Release builds clamp the causality violation to now() so the
    // clock never runs backwards.
    Tick ranAt = 0;
    eq.scheduleAt(5, [&] { ranAt = eq.now(); });
    eq.runToCompletion();
    EXPECT_EQ(ranAt, Tick{10});
    EXPECT_EQ(eq.now(), Tick{10});
#else
    // Debug and validation builds surface the bug immediately.
    EXPECT_ANY_THROW(eq.scheduleAt(5, [] {}));
#endif
}

TEST(EventQueue, HeapOrderMatchesReferenceUnderStress)
{
    // The 4-ary heap must preserve the engine's ordering contract —
    // strict (when, seq): time order with FIFO among same-tick events —
    // including events scheduled from inside running events. Compare a
    // randomized schedule against a stable-sorted reference.
    Rng rng(0xdecl);
    EventQueue eq;
    std::vector<std::pair<Tick, int>> scheduled; // (when, id) in seq order
    std::vector<int> executedIds;
    int nextId = 0;

    auto scheduleRandom = [&](int count) {
        for (int i = 0; i < count; ++i) {
            // Small tick range forces many same-tick ties.
            const Tick when = eq.now() + rng.uniformInt(8);
            const int id = nextId++;
            scheduled.emplace_back(when, id);
            eq.scheduleAt(when, [&executedIds, id] {
                executedIds.push_back(id);
            });
        }
    };

    scheduleRandom(500);
    // Events that themselves schedule more events while running.
    for (int i = 0; i < 200; ++i) {
        const Tick when = eq.now() + rng.uniformInt(16);
        const int id = nextId++;
        scheduled.emplace_back(when, id);
        eq.scheduleAt(when, [&, id] {
            executedIds.push_back(id);
            if (rng.bernoulli(0.5)) {
                const Tick later = eq.now() + rng.uniformInt(8);
                const int child = nextId++;
                scheduled.emplace_back(later, child);
                eq.scheduleAt(later, [&executedIds, child] {
                    executedIds.push_back(child);
                });
            }
        });
    }
    eq.runToCompletion();

    // Reference order: stable sort by time keeps the FIFO tie-break
    // (scheduled[] is already in seq order).
    std::vector<std::pair<Tick, int>> ref = scheduled;
    std::stable_sort(ref.begin(), ref.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(executedIds.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(executedIds[i], ref[i].second) << "at event " << i;
}

TEST(EventCallback, InlineAndSpilledCapturesBothRun)
{
    // Small capture: stays in the inline buffer.
    int small = 0;
    EventCallback tiny([&small] { small = 1; });
    EXPECT_TRUE(static_cast<bool>(tiny));
    tiny();
    EXPECT_EQ(small, 1);

    // Capture far beyond kInlineCapacity: spills to the heap.
    struct Big
    {
        std::array<std::uint64_t, 32> payload;
    };
    Big big{};
    big.payload[0] = 7;
    big.payload[31] = 9;
    int sum = 0;
    EventCallback spilled([big, &sum] {
        sum = static_cast<int>(big.payload[0] + big.payload[31]);
    });
    static_assert(sizeof(Big) > EventCallback::kInlineCapacity);
    spilled();
    EXPECT_EQ(sum, 16);
}

TEST(EventCallback, MoveTransfersOwnership)
{
    auto counter = std::make_shared<int>(0);
    EventCallback a([counter] { ++*counter; });
    EXPECT_EQ(counter.use_count(), 2);
    EventCallback b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT: test moved-from state
    EXPECT_TRUE(static_cast<bool>(b));
    EXPECT_EQ(counter.use_count(), 2); // capture moved, not copied
    b();
    EXPECT_EQ(*counter, 1);

    EventCallback c;
    c = std::move(b);
    c();
    EXPECT_EQ(*counter, 2);
    { EventCallback drop = std::move(c); }
    EXPECT_EQ(counter.use_count(), 1); // destructor released the capture
}

TEST(EventCallback, TrivialClosureSurvivesSlotReuse)
{
    // A plain-data closure near the inline capacity: moved by copying
    // the buffer, with no move or destroy op. Each event re-schedules
    // itself into the slot its own dispatch just freed, so a stale or
    // torn copy would show up as a mismatched payload.
    std::vector<std::uint64_t> seen;
    EventQueue q;
    struct Step
    {
        EventQueue *q;
        std::vector<std::uint64_t> *seen;
        std::uint64_t id, twice, thrice, hops;
        void
        operator()() const
        {
            EXPECT_EQ(twice, 2 * id);
            EXPECT_EQ(thrice, 3 * id);
            seen->push_back(id);
            if (hops > 0)
                q->scheduleIn(1 + id % 3,
                              Step{q, seen, id, twice, thrice, hops - 1});
        }
    };
    static_assert(std::is_trivially_copyable_v<Step>);
    static_assert(sizeof(Step) <= EventCallback::kInlineCapacity);
    for (std::uint64_t id = 0; id < 16; ++id)
        q.scheduleAt(id, Step{&q, &seen, id, 2 * id, 3 * id, 5});
    q.runToCompletion();
    ASSERT_EQ(seen.size(), 16u * 6);
    for (std::uint64_t id = 0; id < 16; ++id)
        EXPECT_EQ(std::count(seen.begin(), seen.end(), id), 6);
}

TEST(EventCallback, SharedCaptureReleasedExactlyOnce)
{
    int deletes = 0;
    auto counted = [&deletes] {
        return std::shared_ptr<int>(new int(0), [&deletes](int *p) {
            ++deletes;
            delete p;
        });
    };

    // Released when the event runs, after moving through the queue.
    {
        EventQueue q;
        auto p = counted();
        int runs = 0;
        q.scheduleAt(3, [p, &runs] { runs += *p + 1; });
        q.scheduleAt(1, [] {}); // shifts the heap under the pending one
        p.reset();
        EXPECT_EQ(deletes, 0);
        q.runToCompletion();
        EXPECT_EQ(runs, 1);
        EXPECT_EQ(deletes, 1);
    }
    EXPECT_EQ(deletes, 1);

    // Released when the queue is destroyed with the event pending.
    deletes = 0;
    {
        EventQueue q;
        auto p = counted();
        q.scheduleAt(5, [p] { ADD_FAILURE() << "must not run"; });
        p.reset();
        EXPECT_EQ(deletes, 0);
    }
    EXPECT_EQ(deletes, 1);
}

TEST(SlabPool, RecyclesChunksWithoutNewSlabs)
{
    SlabPool pool(64, 8);
    std::vector<void *> chunks;
    for (int i = 0; i < 8; ++i)
        chunks.push_back(pool.allocate());
    EXPECT_EQ(pool.slabCount(), 1u);
    EXPECT_EQ(pool.liveChunks(), 8u);
    for (void *p : chunks)
        pool.deallocate(p);
    EXPECT_EQ(pool.liveChunks(), 0u);
    // Reuse must not grow the pool.
    for (int i = 0; i < 8; ++i)
        pool.allocate();
    EXPECT_EQ(pool.slabCount(), 1u);
    // The ninth concurrent chunk needs a second slab.
    pool.allocate();
    EXPECT_EQ(pool.slabCount(), 2u);
}

TEST(EventQueue, RunUntilCondition)
{
    EventQueue eq;
    int count = 0;
    for (int i = 1; i <= 10; ++i)
        eq.scheduleAt(static_cast<Tick>(i), [&] { ++count; });
    const bool hit = eq.runUntilCondition([&] { return count == 4; });
    EXPECT_TRUE(hit);
    EXPECT_EQ(count, 4);
    EXPECT_EQ(eq.now(), Tick{4});
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(7);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[rng.uniformInt(10)];
    for (int c : counts) {
        EXPECT_GT(c, 9300);
        EXPECT_LT(c, 10700);
    }
}

TEST(Rng, ExponentialMean)
{
    Rng rng(11);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, UniformRangeInclusive)
{
    Rng rng(3);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniformRange(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        sawLo |= v == -2;
        sawHi |= v == 2;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, BernoulliProbability)
{
    Rng rng(5);
    int heads = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        heads += rng.bernoulli(0.3);
    EXPECT_NEAR(heads / static_cast<double>(n), 0.3, 0.01);
}

TEST(SerialResource, ServesFifoOneAtATime)
{
    EventQueue eq;
    SerialResource res(eq);
    std::vector<std::pair<int, Tick>> completions;
    for (int i = 0; i < 3; ++i) {
        res.use(10, [&completions, i, &eq] {
            completions.emplace_back(i, eq.now());
        });
    }
    EXPECT_TRUE(res.busy());
    EXPECT_EQ(res.queued(), 2u);
    eq.runToCompletion();
    ASSERT_EQ(completions.size(), 3u);
    // Strict serialization: completions at t=10, 20, 30 in order.
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(completions[static_cast<size_t>(i)].first, i);
        EXPECT_EQ(completions[static_cast<size_t>(i)].second,
                  static_cast<Tick>(10 * (i + 1)));
    }
    EXPECT_FALSE(res.busy());
}

TEST(SerialResource, ReentrantUseFromCompletion)
{
    EventQueue eq;
    SerialResource res(eq);
    int chain = 0;
    std::function<void()> again = [&] {
        if (++chain < 5)
            res.use(7, again);
    };
    res.use(7, again);
    eq.runToCompletion();
    EXPECT_EQ(chain, 5);
    EXPECT_EQ(eq.now(), Tick{35});
}

TEST(SerialResource, UtilizationTracksBusyFraction)
{
    EventQueue eq;
    SerialResource res(eq);
    res.use(25, [] {});
    eq.runToCompletion();
    eq.scheduleAt(100, [] {});
    eq.runToCompletion();
    EXPECT_NEAR(res.utilization(), 0.25, 1e-9);
}

TEST(Seed, Splitmix64KnownValues)
{
    // Reference values from the published splitmix64 test vectors
    // (Vigna); these pin the exact numerics goldens depend on.
    EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafull);
    EXPECT_EQ(splitmix64(1), 0x910a2dec89025cc1ull);
    EXPECT_NE(splitmix64(42), 42u);
}

TEST(Seed, MixSeedIsSplitmixOfSum)
{
    // mixSeed froze the fault model's original derivation; it must stay
    // exactly splitmix64(seed + salt) or fault-injection goldens move.
    EXPECT_EQ(mixSeed(7, 1234), splitmix64(7 + 1234));
    EXPECT_EQ(mixSeed(0, 0), splitmix64(0));
}

TEST(Seed, TaggedSeedIsXor)
{
    EXPECT_EQ(taggedSeed(0xff00ull, 0x00ffull), 0xffffull);
    EXPECT_EQ(taggedSeed(123, 0), 123u);
}

TEST(Seed, ShardSeedIdentityAtOneShard)
{
    // The whole --shards 1 golden-compatibility story rests on this.
    for (std::uint64_t seed : {0ull, 1ull, 42ull, 0xdeadbeefull})
        EXPECT_EQ(shardSeed(seed, 0, 1), seed);
}

TEST(Seed, ShardSeedsAreDistinct)
{
    // Across shard indices and nearby trial seeds, the derived streams
    // must not collide (they seed independent arrays). The derivation
    // is deliberately independent of the shard *count*: shard s of a
    // trial sees the same stream however many siblings it has.
    EXPECT_EQ(shardSeed(42, 1, 2), shardSeed(42, 1, 8));
    std::vector<std::uint64_t> seen;
    for (std::uint64_t trialSeed : {42ull, 43ull, 44ull})
        for (int s = 0; s < 8; ++s)
            seen.push_back(shardSeed(trialSeed, s, 8));
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(Seed, ShardSeedDiffersFromTrialSeed)
{
    // Shard 0 of a multi-shard split must not reuse the trial seed
    // verbatim, or it would correlate with the unsharded run.
    for (std::uint64_t seed : {1ull, 42ull, 7777ull})
        for (int shards : {2, 8})
            EXPECT_NE(shardSeed(seed, 0, shards), seed);
}

} // namespace
} // namespace declust
