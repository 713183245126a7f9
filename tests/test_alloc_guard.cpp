/**
 * @file
 * Steady-state allocation guard for the I/O spine.
 *
 * Replaces the global operator new/delete with counting versions and
 * asserts that once the pools and queues are warm, running user I/O and
 * reconstruction cycles — fault-free, degraded, and under all four
 * reconstruction algorithms — performs zero heap allocations. This is
 * the contract the pooled continuation objects (IoOp), the intrusive
 * stripe-lock waiters, and the raw disk-completion slots exist to keep.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "array/controller.hpp"
#include "designs/generators.hpp"
#include "layout/declustered.hpp"

namespace {

std::uint64_t g_allocCount = 0;

void *
countedAlloc(std::size_t size)
{
    ++g_allocCount;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace declust {
namespace {

DiskGeometry
tinyGeometry()
{
    DiskGeometry g = DiskGeometry::ibm0661();
    g.cylinders = 30;
    g.tracksPerCyl = 2;
    return g;
}

class AllocGuardTest : public ::testing::Test
{
  protected:
    AllocGuardTest() : AllocGuardTest(EventQueue::defaultImpl()) {}
    explicit AllocGuardTest(EventQueue::Impl impl) : eq(impl) {}

    void
    build(int numDisks, int G, const char *scheduler = "cvscan",
          ec::DataPlaneMode dataPlane = ec::DataPlaneMode::Off,
          double hedgeAfterMs = 0.0)
    {
        ArrayParams params;
        params.geometry = tinyGeometry();
        params.scheduler = scheduler;
        params.dataPlane = dataPlane;
        params.hedgeAfterMs = hedgeAfterMs;
        const int units =
            static_cast<int>(params.geometry.totalSectors() / 8);
        auto layout = std::make_unique<DeclusteredLayout>(
            makeCompleteDesign(numDisks, G), units);
        array = std::make_unique<ArrayController>(eq, std::move(layout),
                                                  params);
    }

    /** Run a batch of user ops to completion, returning heap allocs. */
    template <typename F>
    std::uint64_t
    allocsDuring(F &&body)
    {
        const std::uint64_t before = g_allocCount;
        body();
        eq.runToCompletion();
        return g_allocCount - before;
    }

    void
    readRange(std::int64_t first, std::int64_t count)
    {
        for (std::int64_t u = first; u < first + count; ++u)
            array->readUnit(u, [] {});
    }

    void
    writeRange(std::int64_t first, std::int64_t count)
    {
        for (std::int64_t u = first; u < first + count; ++u)
            array->writeUnit(u, [] {});
    }

    EventQueue eq;
    std::unique_ptr<ArrayController> array;
};

TEST_F(AllocGuardTest, FaultFreeSteadyStateIsAllocationFree)
{
    build(5, 4);
    // Warm: first pass populates the op pool slabs, disk pending slots,
    // scheduler vectors, and the event queue heap.
    const std::uint64_t warm =
        allocsDuring([&] { writeRange(0, 64); readRange(0, 64); });
    EXPECT_GT(warm, 0u) << "warm-up should have grown the pools";

    const std::uint64_t steady =
        allocsDuring([&] { writeRange(0, 64); readRange(0, 64); });
    EXPECT_EQ(steady, 0u)
        << "fault-free RMW traffic allocated on a warm array";
}

TEST_F(AllocGuardTest, DegradedModeSteadyStateIsAllocationFree)
{
    build(5, 4);
    // Warm fault-free first so written values exist, then fail a disk.
    allocsDuring([&] { writeRange(0, 128); });
    array->failDisk(1);

    // Warm the degraded paths (reconstruct-reads and folded writes).
    allocsDuring([&] { writeRange(0, 96); readRange(0, 96); });

    const std::uint64_t steady =
        allocsDuring([&] { writeRange(0, 96); readRange(0, 96); });
    EXPECT_EQ(steady, 0u)
        << "degraded-mode traffic allocated on a warm array";
}

/**
 * Hedged reads ride the same pooled-op spine: the deadline timer is an
 * 8-byte inline event capture and the reconstruct race reuses the op's
 * own fan-in state, so arming a hedge on every read must stay heap-free
 * once the pools are warm. A 1 ms deadline fires long before any ~20 ms
 * disk access completes, so every read takes the full hedge path.
 */
TEST_F(AllocGuardTest, HedgedReadSteadyStateIsAllocationFree)
{
    build(5, 4, "cvscan", ec::DataPlaneMode::Off, 1.0);
    const std::uint64_t warm =
        allocsDuring([&] { writeRange(0, 64); readRange(0, 64); });
    EXPECT_GT(warm, 0u) << "warm-up should have grown the pools";

    const std::uint64_t steady =
        allocsDuring([&] { writeRange(0, 64); readRange(0, 64); });
    EXPECT_EQ(steady, 0u)
        << "hedged reads allocated on a warm array";
    EXPECT_GT(array->hedgeStats().launched, 0u)
        << "the 1 ms deadline should have hedged the reads";
}

/**
 * The data plane's byte math runs inside the combine paths, so verify
 * mode is held to the same contract: the buffer pool's slabs are
 * warm-up-only, and every steady-state cross-check is two pooled leases
 * with zero heap traffic — fault-free, degraded, and while
 * reconstruction cycles stream G-1-way combines.
 */
TEST_F(AllocGuardTest, DataPlaneVerifySteadyStateIsAllocationFree)
{
    build(5, 4, "cvscan", ec::DataPlaneMode::Verify);
    const std::uint64_t warm =
        allocsDuring([&] { writeRange(0, 64); readRange(0, 64); });
    EXPECT_GT(warm, 0u) << "warm-up should have grown the pools";

    const std::uint64_t steady =
        allocsDuring([&] { writeRange(0, 64); readRange(0, 64); });
    EXPECT_EQ(steady, 0u)
        << "verify-mode RMW cross-checks allocated on a warm array";
    EXPECT_GT(array->dataPlaneStats().combinesChecked, 0u)
        << "the steady state exercised no combine checks";
}

TEST_F(AllocGuardTest, DataPlaneVerifyDegradedSteadyStateIsAllocationFree)
{
    build(5, 4, "cvscan", ec::DataPlaneMode::Verify);
    allocsDuring([&] { writeRange(0, 128); });
    array->failDisk(1);

    // Warm the degraded combine paths: G-1-way reconstruct-reads and
    // folded writes, each byte-checked by the plane.
    allocsDuring([&] { writeRange(0, 96); readRange(0, 96); });

    const std::uint64_t checkedBefore =
        array->dataPlaneStats().combinesChecked;
    const std::uint64_t steady =
        allocsDuring([&] { writeRange(0, 96); readRange(0, 96); });
    EXPECT_EQ(steady, 0u)
        << "verify-mode degraded cross-checks allocated on a warm array";
    EXPECT_GT(array->dataPlaneStats().combinesChecked, checkedBefore);
}

TEST_F(AllocGuardTest, DataPlaneVerifyReconstructionIsAllocationFree)
{
    build(5, 4, "cvscan", ec::DataPlaneMode::Verify);
    allocsDuring([&] { writeRange(0, 128); });
    array->failDisk(2);
    array->attachReplacement(ReconAlgorithm::RedirectPiggyback);

    const auto cycle = [&](int offset) {
        array->reconstructOffset(offset, [](const CycleResult &) {});
    };
    // Warm the reconstruction combine paths (cycle combines plus the
    // write-through/piggyback user-write variants).
    allocsDuring([&] {
        writeRange(0, 48);
        for (int off = 0; off < 16; ++off)
            cycle(off);
    });

    const std::uint64_t checkedBefore =
        array->dataPlaneStats().combinesChecked;
    const std::uint64_t steady = allocsDuring([&] {
        writeRange(48, 48);
        for (int off = 16; off < 32; ++off)
            cycle(off);
    });
    EXPECT_EQ(steady, 0u)
        << "verify-mode reconstruction cross-checks allocated on a "
           "warm array";
    EXPECT_GT(array->dataPlaneStats().combinesChecked, checkedBefore);
}

/**
 * The zero-allocation contract must hold under every head scheduler,
 * not just the default CVSCAN: FCFS runs on a ring buffer and the V(R)
 * family on a capacity-retaining vector, all of which stop allocating
 * once the queue-depth high-water mark is reached.
 */
/**
 * The contract is implementation-independent: the calendar queue's slab
 * node pool and capacity-retaining bucket ring must stop allocating once
 * warm, exactly like the heap's vector — including through the width
 * retunes and bucket resizes steady-state traffic triggers.
 */
class AllocGuardCalendarTest : public AllocGuardTest
{
  protected:
    AllocGuardCalendarTest()
        : AllocGuardTest(EventQueue::Impl::Calendar)
    {
    }
};

TEST_F(AllocGuardCalendarTest, FaultFreeSteadyStateIsAllocationFree)
{
    build(5, 4);
    const std::uint64_t warm =
        allocsDuring([&] { writeRange(0, 64); readRange(0, 64); });
    EXPECT_GT(warm, 0u) << "warm-up should have grown the pools";

    const std::uint64_t steady =
        allocsDuring([&] { writeRange(0, 64); readRange(0, 64); });
    EXPECT_EQ(steady, 0u)
        << "calendar-queue RMW traffic allocated on a warm array";
}

TEST_F(AllocGuardCalendarTest, ReconstructionSteadyStateIsAllocationFree)
{
    build(5, 4);
    allocsDuring([&] { writeRange(0, 128); });
    array->failDisk(2);
    array->attachReplacement(ReconAlgorithm::RedirectPiggyback);

    const auto cycle = [&](int offset) {
        array->reconstructOffset(offset, [](const CycleResult &) {});
    };
    allocsDuring([&] {
        writeRange(0, 48);
        for (int off = 0; off < 16; ++off)
            cycle(off);
    });

    const std::uint64_t steady = allocsDuring([&] {
        writeRange(48, 48);
        for (int off = 16; off < 32; ++off)
            cycle(off);
    });
    EXPECT_EQ(steady, 0u)
        << "calendar-queue reconstruction traffic allocated on a warm "
           "array";
}

/**
 * reserve() is the bring-up pre-sizing hook: a bare queue that stays at
 * or below the reserved population must not allocate after the reserve,
 * for either implementation.
 */
class AllocGuardReserveTest
    : public ::testing::TestWithParam<EventQueue::Impl>
{
};

TEST_P(AllocGuardReserveTest, ReservedQueueSchedulesWithoutAllocating)
{
    EventQueue eq(GetParam());
    eq.reserve(512);
    // Warm this thread's perf-counter block separately: it registers
    // itself on first use and is not part of the pending-set contract.
    eq.scheduleIn(1, [] {});
    eq.runToCompletion();

    const std::uint64_t before = g_allocCount;
    for (int round = 0; round < 8; ++round) {
        for (Tick d = 0; d < 500; ++d)
            eq.scheduleIn(d * 7 % 1000, [] {});
        eq.runToCompletion();
    }
    EXPECT_EQ(g_allocCount - before, 0u)
        << "impl '" << EventQueue::implName(GetParam())
        << "' allocated within its reserved population";
}

INSTANTIATE_TEST_SUITE_P(
    BothImpls, AllocGuardReserveTest,
    ::testing::Values(EventQueue::Impl::Heap,
                      EventQueue::Impl::Calendar),
    [](const ::testing::TestParamInfo<EventQueue::Impl> &info) {
        return std::string(EventQueue::implName(info.param));
    });

class AllocGuardSchedulerTest
    : public AllocGuardTest,
      public ::testing::WithParamInterface<const char *>
{
};

TEST_P(AllocGuardSchedulerTest, SteadyStateIsAllocationFree)
{
    build(5, 4, GetParam());
    const std::uint64_t warm =
        allocsDuring([&] { writeRange(0, 64); readRange(0, 64); });
    EXPECT_GT(warm, 0u) << "warm-up should have grown the pools";

    const std::uint64_t steady =
        allocsDuring([&] { writeRange(0, 64); readRange(0, 64); });
    EXPECT_EQ(steady, 0u) << "scheduler '" << GetParam()
                          << "' allocated on a warm array";
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, AllocGuardSchedulerTest,
    ::testing::Values("fcfs", "sstf", "scan", "cvscan"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

class AllocGuardReconTest
    : public AllocGuardTest,
      public ::testing::WithParamInterface<ReconAlgorithm>
{
};

TEST_P(AllocGuardReconTest, ReconstructionSteadyStateIsAllocationFree)
{
    build(5, 4);
    allocsDuring([&] { writeRange(0, 128); });
    array->failDisk(2);
    array->attachReplacement(GetParam());

    // Warm with concurrent user traffic plus reconstruction cycles; the
    // user writes also exercise the write-through/piggyback variants.
    const auto cycle = [&](int offset) {
        array->reconstructOffset(offset, [](const CycleResult &) {});
    };
    allocsDuring([&] {
        writeRange(0, 48);
        for (int off = 0; off < 16; ++off)
            cycle(off);
    });

    const std::uint64_t steady = allocsDuring([&] {
        writeRange(48, 48);
        for (int off = 16; off < 32; ++off)
            cycle(off);
    });
    EXPECT_EQ(steady, 0u)
        << "reconstruction traffic allocated on a warm array";
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AllocGuardReconTest,
    ::testing::Values(ReconAlgorithm::Baseline,
                      ReconAlgorithm::UserWrites,
                      ReconAlgorithm::Redirect,
                      ReconAlgorithm::RedirectPiggyback),
    [](const ::testing::TestParamInfo<ReconAlgorithm> &info) {
        // toString() uses punctuation gtest forbids in test names.
        std::string name = toString(info.param);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

} // namespace
} // namespace declust
