/**
 * @file
 * Tests for the disk substrate: geometry math, seek-curve calibration,
 * schedulers, and emergent service-time behaviour (the ~46 random 4 KB
 * accesses/sec and ~3 minute full-disk read the paper quotes).
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "disk/disk.hpp"
#include "disk/geometry.hpp"
#include "disk/scheduler.hpp"
#include "disk/seek_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace declust {
namespace {

TEST(Geometry, Ibm0661Capacity)
{
    const DiskGeometry g = DiskGeometry::ibm0661();
    EXPECT_EQ(g.totalSectors(), 949LL * 14 * 48);
    EXPECT_EQ(g.totalBytes(), 949LL * 14 * 48 * 512);
    // ~326 MB, matching the product's ~320 MB class.
    EXPECT_NEAR(static_cast<double>(g.totalBytes()) / (1 << 20), 311.2,
                1.0);
}

TEST(Geometry, LbaChsRoundTrip)
{
    const DiskGeometry g = DiskGeometry::ibm0661();
    for (std::int64_t lba : {0LL, 47LL, 48LL, 671LL, 672LL, 637727LL}) {
        const Chs chs = g.lbaToChs(lba);
        EXPECT_EQ(g.chsToLba(chs), lba);
    }
    const Chs last = g.lbaToChs(g.totalSectors() - 1);
    EXPECT_EQ(last.cylinder, 948);
    EXPECT_EQ(last.track, 13);
    EXPECT_EQ(last.sector, 47);
}

TEST(Geometry, TrackSkewAdvancesPerTrack)
{
    const DiskGeometry g = DiskGeometry::ibm0661();
    const Chs t0{0, 0, 0}, t1{0, 1, 0}, t2{0, 2, 0};
    EXPECT_EQ(g.physicalSlot(t0), 0);
    EXPECT_EQ(g.physicalSlot(t1), 4);
    EXPECT_EQ(g.physicalSlot(t2), 8);
    // Skew wraps around the track.
    const Chs t12{0, 12, 0};
    EXPECT_EQ(g.physicalSlot(t12), 0);
}

TEST(Geometry, ScaledKeepsTimingChangesCapacity)
{
    const DiskGeometry s = DiskGeometry::ibm0661Scaled(2);
    const DiskGeometry f = DiskGeometry::ibm0661();
    EXPECT_EQ(s.cylinders, f.cylinders);
    EXPECT_EQ(s.revolutionMs, f.revolutionMs);
    EXPECT_EQ(s.totalSectors(), f.totalSectors() / 7);
}

TEST(Geometry, ValidationCatchesNonsense)
{
    DiskGeometry g = DiskGeometry::ibm0661();
    g.seekMaxMs = 1.0;
    EXPECT_ANY_THROW(g.validate());
}

TEST(SeekModel, CalibratedEndpoints)
{
    const DiskGeometry g = DiskGeometry::ibm0661();
    const SeekModel m(g);
    EXPECT_DOUBLE_EQ(m.seekMs(0), 0.0);
    EXPECT_NEAR(m.seekMs(1), 2.0, 1e-9);
    EXPECT_NEAR(m.seekMs(948), 25.0, 1e-9);
    EXPECT_NEAR(m.averageMs(), 12.5, 1e-6);
}

TEST(SeekModel, Monotone)
{
    const SeekModel m(DiskGeometry::ibm0661());
    double prev = 0.0;
    for (int d = 1; d <= 948; ++d) {
        EXPECT_GE(m.seekMs(d), prev);
        prev = m.seekMs(d);
    }
}

/** The calibration must hold for any plausible cylinder count. */
class SeekModelSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(SeekModelSweep, CalibratesAtAnyCylinderCount)
{
    DiskGeometry g = DiskGeometry::ibm0661();
    g.cylinders = GetParam();
    const SeekModel m(g);
    EXPECT_NEAR(m.seekMs(1), g.seekMinMs, 1e-9);
    EXPECT_NEAR(m.seekMs(g.cylinders - 1), g.seekMaxMs, 1e-9);
    EXPECT_NEAR(m.averageMs(), g.seekAvgMs, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Cylinders, SeekModelSweep,
                         ::testing::Values(50, 100, 300, 600, 949, 2000));

TEST(SeekModel, TicksMatchMs)
{
    const SeekModel m(DiskGeometry::ibm0661());
    EXPECT_NEAR(ticksToMs(m.seekTicks(100)), m.seekMs(100), 0.001);
}

TEST(Scheduler, FcfsOrder)
{
    auto s = makeFcfsScheduler();
    s->push({1, 500, 0});
    s->push({2, 10, 1});
    EXPECT_EQ(s->pop(0, SeekDirection::None).id, 1);
    EXPECT_EQ(s->pop(0, SeekDirection::None).id, 2);
    EXPECT_TRUE(s->empty());
}

TEST(Scheduler, SstfPicksNearest)
{
    auto s = makeSstfScheduler(949);
    s->push({1, 500, 0});
    s->push({2, 100, 1});
    s->push({3, 90, 2});
    EXPECT_EQ(s->pop(93, SeekDirection::None).id, 3); // distance 3 < 7
    EXPECT_EQ(s->pop(90, SeekDirection::None).id, 2);
}

TEST(Scheduler, ScanKeepsDirection)
{
    auto s = makeScanScheduler(949);
    s->push({1, 80, 0});  // behind an upward-moving head
    s->push({2, 300, 1}); // ahead but farther
    EXPECT_EQ(s->pop(100, SeekDirection::Up).id, 2);
}

TEST(Scheduler, CvscanBalancesReversals)
{
    // With R=0.2 the reversal penalty is ~190 cylinders: a request 5
    // behind loses to one 150 ahead only if 5+190 > 150.
    auto s = makeCvscanScheduler(949);
    s->push({1, 95, 0});
    s->push({2, 250, 1});
    EXPECT_EQ(s->pop(100, SeekDirection::Up).id, 2);
    // But a very distant forward request loses to a near reversal.
    s->push({3, 900, 2});
    EXPECT_EQ(s->pop(250, SeekDirection::Up).id, 1); // 155+190 < 650
}

TEST(Scheduler, FactoryNames)
{
    EXPECT_NE(makeScheduler("fcfs", 949), nullptr);
    EXPECT_NE(makeScheduler("cvscan", 949), nullptr);
    EXPECT_ANY_THROW(makeScheduler("elevator-of-doom", 949));
}

class DiskSim : public ::testing::Test
{
  protected:
    void
    makeDisk(const DiskGeometry &g, const std::string &sched = "cvscan")
    {
        disk = std::make_unique<Disk>(eq, g, makeScheduler(sched,
                                                           g.cylinders),
                                      0);
    }

    EventQueue eq;
    std::unique_ptr<Disk> disk;
};

TEST_F(DiskSim, SingleAccessWithinPhysicalBounds)
{
    makeDisk(DiskGeometry::ibm0661());
    int done = 0;
    disk->submit({631000, 8, false}, [&] { ++done; });
    eq.runToCompletion();
    EXPECT_EQ(done, 1);
    const double ms = disk->stats().meanServiceMs();
    // Seek (<=25) + rotation (<13.9) + transfer (~2.3).
    EXPECT_GT(ms, 2.0);
    EXPECT_LT(ms, 42.0);
}

TEST_F(DiskSim, ZeroDistanceAccessIsRotationBound)
{
    makeDisk(DiskGeometry::ibm0661());
    int done = 0;
    disk->submit({0, 8, false}, [&] { ++done; });
    eq.runToCompletion();
    // Head starts at cylinder 0, sector 0, time 0: no seek, no wait.
    EXPECT_EQ(done, 1);
    const double transferMs = 13.9 * 8 / 48;
    EXPECT_NEAR(disk->stats().meanServiceMs(), transferMs, 0.01);
}

TEST_F(DiskSim, RandomAccessRateNear46PerSecond)
{
    // Closed-loop random 4 KB reads; the paper says this disk sustains
    // about 46 of them per second.
    makeDisk(DiskGeometry::ibm0661());
    Rng rng(99);
    const std::int64_t units = DiskGeometry::ibm0661().totalSectors() / 8;
    int completed = 0;
    std::function<void()> next = [&] {
        if (++completed >= 2000)
            return;
        disk->submit(
            {static_cast<std::int64_t>(rng.uniformInt(
                 static_cast<std::uint64_t>(units))) * 8,
             8, false},
            next);
    };
    disk->submit({0, 8, false}, next);
    eq.runToCompletion();
    const double rate =
        completed / ticksToSec(eq.now());
    EXPECT_NEAR(rate, 46.0, 3.0);
}

TEST_F(DiskSim, FullDiskSequentialReadTakesAboutThreeMinutes)
{
    makeDisk(DiskGeometry::ibm0661());
    const auto total = DiskGeometry::ibm0661().totalSectors();
    int done = 0;
    disk->submit({0, static_cast<int>(total), false}, [&] { ++done; });
    eq.runToCompletion();
    EXPECT_EQ(done, 1);
    const double sec = ticksToSec(eq.now());
    EXPECT_GT(sec, 175.0); // the paper's "three minutes it takes to read"
    EXPECT_LT(sec, 230.0);
}

TEST_F(DiskSim, SequentialUnitReadsFasterThanRandom)
{
    makeDisk(DiskGeometry::ibm0661());
    int completed = 0;
    std::int64_t sector = 0;
    std::function<void()> next = [&] {
        if (++completed >= 500)
            return;
        sector += 8;
        disk->submit({sector, 8, false}, next);
    };
    disk->submit({sector, 8, false}, next);
    eq.runToCompletion();
    const double seqMs = disk->stats().meanServiceMs();
    // Sequential chains complete in far less than a random access.
    EXPECT_LT(seqMs, 6.0);
}

TEST_F(DiskSim, UtilizationTracksBusyTime)
{
    makeDisk(DiskGeometry::ibm0661());
    disk->submit({1000, 8, false}, [] {});
    eq.runToCompletion();
    const Tick busyEnd = eq.now();
    eq.scheduleAt(busyEnd * 2, [] {});
    eq.runToCompletion();
    EXPECT_NEAR(disk->utilization(), 0.5, 0.01);
}

TEST_F(DiskSim, QueueDepthAccounting)
{
    makeDisk(DiskGeometry::ibm0661());
    for (int i = 0; i < 5; ++i)
        disk->submit({i * 8000, 8, false}, [] {});
    EXPECT_EQ(disk->outstanding(), 5u);
    EXPECT_EQ(disk->queueDepth(), 4u); // one in service
    eq.runToCompletion();
    EXPECT_EQ(disk->outstanding(), 0u);
    EXPECT_EQ(disk->stats().reads, 5u);
}

TEST_F(DiskSim, CvscanBeatsFcfsOnBacklog)
{
    Rng rng(7);
    std::vector<std::int64_t> sectors;
    for (int i = 0; i < 200; ++i)
        sectors.push_back(static_cast<std::int64_t>(
                              rng.uniformInt(949ull * 14 * 48 / 8)) *
                          8);

    auto runWith = [&](const std::string &sched) {
        EventQueue q;
        Disk d(q, DiskGeometry::ibm0661(),
               makeScheduler(sched, 949), 0);
        for (auto s : sectors)
            d.submit({s, 8, false}, [] {});
        q.runToCompletion();
        return ticksToSec(q.now());
    };
    EXPECT_LT(runWith("cvscan"), runWith("fcfs") * 0.75);
}

TEST_F(DiskSim, RejectsOutOfRangeTransfer)
{
    makeDisk(DiskGeometry::ibm0661());
    EXPECT_ANY_THROW(
        disk->submit({DiskGeometry::ibm0661().totalSectors(), 8, false},
                     [] {}));
    EXPECT_ANY_THROW(disk->submit({0, 0, false}, [] {}));
}

TEST_F(DiskSim, WriteCountsSeparately)
{
    makeDisk(DiskGeometry::ibm0661());
    disk->submit({0, 8, true}, [] {});
    disk->submit({80, 8, false}, [] {});
    eq.runToCompletion();
    EXPECT_EQ(disk->stats().writes, 1u);
    EXPECT_EQ(disk->stats().reads, 1u);
}

TEST_F(DiskSim, StatsReset)
{
    makeDisk(DiskGeometry::ibm0661());
    disk->submit({0, 8, false}, [] {});
    eq.runToCompletion();
    disk->resetStats();
    EXPECT_EQ(disk->stats().reads, 0u);
    EXPECT_EQ(disk->stats().completions(), 0u);
}

TEST_F(DiskSim, BackToBackSequentialUnitsCostOnlyTransfer)
{
    // Consecutive 8-sector reads on one track, issued immediately on
    // completion, must each cost exactly the transfer time: no seek, no
    // rotational slip (the head is already at the next sector).
    makeDisk(DiskGeometry::ibm0661());
    std::int64_t sector = 0;
    int done = 0;
    std::function<void()> next = [&] {
        if (++done >= 5)
            return;
        sector += 8;
        disk->submit({sector, 8, false}, next);
    };
    disk->submit({sector, 8, false}, next);
    eq.runToCompletion();
    const double transferMs = 13.9 * 8 / 48;
    EXPECT_NEAR(ticksToMs(eq.now()), 5 * transferMs, 0.02);
}

TEST_F(DiskSim, MissedRotationCostsAFullRevolution)
{
    // Read unit 0, then re-read unit 0: the head just passed it, so the
    // second access waits almost a whole revolution.
    makeDisk(DiskGeometry::ibm0661());
    int done = 0;
    disk->submit({0, 8, false}, [&] { ++done; });
    eq.runToCompletion();
    const Tick afterFirst = eq.now();
    disk->submit({0, 8, false}, [&] { ++done; });
    eq.runToCompletion();
    EXPECT_EQ(done, 2);
    const double secondMs = ticksToMs(eq.now() - afterFirst);
    const double revolutionMs = 13.9;
    const double transferMs = revolutionMs * 8 / 48;
    EXPECT_NEAR(secondMs, revolutionMs - transferMs + transferMs, 0.02);
}

TEST_F(DiskSim, ScaledGeometryKeepsServiceTimes)
{
    // Random-access service-time distribution must match between the
    // full disk and a capacity-scaled one (that is the point of
    // scaling tracks per cylinder, not timing).
    auto meanService = [](int tracks) {
        EventQueue q;
        DiskGeometry g = DiskGeometry::ibm0661Scaled(tracks);
        Disk d(q, g, makeScheduler("cvscan", g.cylinders), 0);
        Rng rng(77);
        const std::int64_t units = g.totalSectors() / 8;
        int completed = 0;
        std::function<void()> next = [&] {
            if (++completed >= 1500)
                return;
            d.submit({static_cast<std::int64_t>(
                          rng.uniformInt(static_cast<std::uint64_t>(
                              units))) *
                          8,
                      8, false},
                     next);
        };
        d.submit({0, 8, false}, next);
        q.runToCompletion();
        return d.stats().meanServiceMs();
    };
    EXPECT_NEAR(meanService(1), meanService(14), 1.0);
}

class TrackBufferDisk : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const DiskGeometry g = DiskGeometry::ibm0661();
        disk = std::make_unique<Disk>(
            eq, g, makeScheduler("cvscan", g.cylinders), 0);
        disk->enableTrackBuffer(0.5);
    }

    double
    timeOne(std::int64_t sector, bool isWrite = false)
    {
        const Tick before = eq.now();
        disk->submit({sector, 8, isWrite}, [] {});
        eq.runToCompletion();
        return ticksToMs(eq.now() - before);
    }

    EventQueue eq;
    std::unique_ptr<Disk> disk;
};

TEST_F(TrackBufferDisk, RereadOfBufferedTrackIsFast)
{
    timeOne(0);                       // reads track 0, buffers it
    EXPECT_NEAR(timeOne(8), 0.5, 1e-6); // next unit, same track: hit
    EXPECT_NEAR(timeOne(0), 0.5, 1e-6); // re-read: hit
}

TEST_F(TrackBufferDisk, DifferentTrackMisses)
{
    timeOne(0);
    EXPECT_GT(timeOne(48), 1.0); // next track: full mechanical access
    EXPECT_NEAR(timeOne(56), 0.5, 1e-6); // now track 1 is buffered
}

TEST_F(TrackBufferDisk, WriteInvalidatesBufferedTrack)
{
    timeOne(0);
    timeOne(16, true);             // write into track 0
    EXPECT_GT(timeOne(0), 1.0);    // buffer was invalidated
}

TEST_F(TrackBufferDisk, CrossTrackReadNotServedFromBuffer)
{
    timeOne(0);
    // A transfer spanning tracks 0..1 cannot be a pure buffer hit.
    const Tick before = eq.now();
    disk->submit({40, 16, false}, [] {});
    eq.runToCompletion();
    EXPECT_GT(ticksToMs(eq.now() - before), 1.0);
}

class PriorityDisk : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const DiskGeometry g = DiskGeometry::ibm0661();
        disk = std::make_unique<Disk>(eq, g,
                                      makeScheduler("cvscan", g.cylinders),
                                      0,
                                      makeScheduler("cvscan",
                                                    g.cylinders));
    }

    void
    submitTagged(std::int64_t sector, Priority priority, int tag,
                 std::vector<int> &order)
    {
        DiskRequest r;
        r.startSector = sector;
        r.sectorCount = 8;
        r.priority = priority;
        disk->submit(r, [tag, &order] { order.push_back(tag); });
    }

    EventQueue eq;
    std::unique_ptr<Disk> disk;
};

TEST_F(PriorityDisk, NormalRequestsJumpBackgroundBacklog)
{
    std::vector<int> order;
    // Fill the background queue while the disk is busy with request 0.
    submitTagged(0, Priority::Normal, 0, order);
    for (int i = 1; i <= 3; ++i)
        submitTagged(i * 8000, Priority::Background, i, order);
    // A late normal request must be serviced before all backgrounds.
    submitTagged(32000, Priority::Normal, 4, order);
    eq.runToCompletion();
    ASSERT_EQ(order.size(), 5u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 4);
}

TEST_F(PriorityDisk, BackgroundRunsWhenIdle)
{
    std::vector<int> order;
    submitTagged(0, Priority::Background, 1, order);
    eq.runToCompletion();
    EXPECT_EQ(order, std::vector<int>{1});
}

TEST_F(PriorityDisk, QueueDepthCountsBothClasses)
{
    std::vector<int> order;
    submitTagged(0, Priority::Normal, 0, order);
    submitTagged(8000, Priority::Normal, 1, order);
    submitTagged(16000, Priority::Background, 2, order);
    EXPECT_EQ(disk->queueDepth(), 2u);
    EXPECT_EQ(disk->outstanding(), 3u);
    EXPECT_TRUE(disk->hasPrioritySeparation());
    eq.runToCompletion();
}

TEST_F(DiskSim, WithoutSeparationBackgroundIsNormal)
{
    makeDisk(DiskGeometry::ibm0661());
    EXPECT_FALSE(disk->hasPrioritySeparation());
    std::vector<int> order;
    DiskRequest a;
    a.startSector = 0;
    a.sectorCount = 8;
    disk->submit(a, [&order] { order.push_back(0); });
    DiskRequest b;
    b.startSector = 8000;
    b.sectorCount = 8;
    b.priority = Priority::Background;
    disk->submit(b, [&order] { order.push_back(1); });
    DiskRequest c;
    c.startSector = 8008; // nearest to b: FCFS would pick it second
    c.sectorCount = 8;
    disk->submit(c, [&order] { order.push_back(2); });
    eq.runToCompletion();
    // Background shared the single queue: scheduled by position, not
    // demoted, so it runs before the farther normal request c only if
    // nearer — here b and c are adjacent, order follows the scheduler.
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0);
}

/**
 * The integer statistics must be exact sums over what a tracer sees:
 * for every scheduler, with and without a background queue, a random
 * open-loop mix of reads, writes and background requests.
 */
class DiskStatsSums
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(DiskStatsSums, IntegerSumsMatchAccessRecords)
{
    const auto [sched, separate] = GetParam();
    const DiskGeometry g = DiskGeometry::ibm0661Scaled(1);
    EventQueue eq;
    Disk disk(eq, g, makeScheduler(sched, g.cylinders), 0,
              separate ? makeScheduler(sched, g.cylinders) : nullptr);
    std::vector<AccessRecord> records;
    disk.setTracer(
        [&records](const AccessRecord &r) { records.push_back(r); });

    Rng rng(11);
    const std::int64_t units = g.totalSectors() / 8;
    // ~60 requests/s against a ~46/s disk: queues build and drain, so
    // both the idle fast path and the scheduler path are exercised.
    Tick at = 0;
    for (int i = 0; i < 600; ++i) {
        at += msToTicks(rng.exponential(1000.0 / 60.0));
        DiskRequest r;
        r.startSector = static_cast<std::int64_t>(rng.uniformInt(
                            static_cast<std::uint64_t>(units))) *
                        8;
        r.sectorCount = 8;
        r.isWrite = rng.uniform() < 0.4;
        r.priority = rng.uniform() < 0.3 ? Priority::Background
                                         : Priority::Normal;
        r.onComplete = [](void *, IoStatus) {};
        eq.scheduleAt(at, [&disk, r] { disk.submit(r); });
    }
    eq.runToCompletion();

    ASSERT_EQ(records.size(), 600u);
    Tick service = 0, queue = 0;
    std::uint64_t reads = 0, writes = 0, waited = 0;
    for (const AccessRecord &r : records) {
        service += r.completed - r.dispatched;
        queue += r.dispatched - r.enqueued;
        ++(r.isWrite ? writes : reads);
        waited += r.dispatched > r.enqueued;
    }
    const DiskStats &st = disk.stats();
    EXPECT_EQ(st.serviceTicks, service);
    EXPECT_EQ(st.queueTicks, queue);
    EXPECT_EQ(st.reads, reads);
    EXPECT_EQ(st.writes, writes);
    EXPECT_EQ(st.reads + st.writes, records.size());
    EXPECT_EQ(st.completions(), records.size());
    EXPECT_GT(waited, 0u);
    EXPECT_LT(waited, records.size());
    EXPECT_DOUBLE_EQ(st.meanResponseMs(),
                     ticksToMs(service + queue) / 600.0);
    EXPECT_DOUBLE_EQ(st.meanQueueMs(), ticksToMs(queue) / 600.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, DiskStatsSums,
    ::testing::Combine(::testing::Values(std::string("fcfs"), "sstf",
                                         "scan", "cvscan"),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_background" : "_shared");
    });

TEST_F(DiskSim, IdleSubmitDispatchesAtOnce)
{
    makeDisk(DiskGeometry::ibm0661());
    std::vector<AccessRecord> records;
    disk->setTracer(
        [&records](const AccessRecord &r) { records.push_back(r); });
    eq.scheduleAt(1000, [this] { disk->submit({8000, 8, false}, [] {}); });
    eq.scheduleAt(1001, [this] { disk->submit({16000, 8, true}, [] {}); });
    // Submitted to the idle disk: in service before submit returns.
    eq.scheduleAt(1000, [this] { EXPECT_TRUE(disk->busy()); });
    eq.runToCompletion();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].enqueued, 1000u);
    EXPECT_EQ(records[0].dispatched, records[0].enqueued);
    // The second arrived while the first was in service and queued.
    EXPECT_EQ(records[1].enqueued, 1001u);
    EXPECT_EQ(records[1].dispatched, records[0].completed);
    EXPECT_EQ(disk->stats().queueTicks,
              records[1].dispatched - records[1].enqueued);
}

} // namespace
} // namespace declust
