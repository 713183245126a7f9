/**
 * @file
 * Compile-time-zero-cost performance counters for the simulator's I/O
 * spine.
 *
 * Counting sites are spread across the hot path (disk submits, stripe
 * locks, pooled continuation ops, callback spills), so the layer is
 * built to cost nothing when compiled out and almost nothing when on:
 *
 *  - With DECLUST_PERF_COUNTERS=0 every DECLUST_PERF_* macro expands to
 *    `(void)0`; no counter storage is touched and no code is emitted.
 *  - With DECLUST_PERF_COUNTERS=1 (the default) each site is a plain
 *    thread-local increment — no atomics, no locks on the hot path.
 *
 * Counters are per-thread blocks registered with a global registry.
 * TrialRunner workers each get their own block; when a thread exits its
 * block is folded into the registry's retired total, so aggregation
 * after a parallel sweep sees every event. perfAggregate() must only be
 * run while no other thread is actively counting (benches call it after
 * the worker pool has joined).
 *
 * Everything callable from the hot path is defined inline here so the
 * subsystem libraries (sim, disk, array) need no link-time dependency
 * on declust_stats; only cold aggregation/naming helpers live in
 * perf_counters.cpp.
 */
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#ifndef DECLUST_PERF_COUNTERS
#define DECLUST_PERF_COUNTERS 1
#endif

namespace declust {

/**
 * Event counters by type. The X-macro keeps the enum and the JSON field
 * names in one place (see perfCounterName()).
 */
#define DECLUST_PERF_COUNTER_LIST(X)                                       \
    X(IoOpAcquired, "io_ops_acquired")                                     \
    X(IoOpReleased, "io_ops_released")                                     \
    X(IoOpSlabs, "io_op_pool_slabs")                                       \
    X(DeferredIssues, "deferred_issues")                                   \
    X(CallbackInline, "callbacks_inline")                                  \
    X(CallbackSpillHeap, "callbacks_spill_heap")                           \
    X(LockUncontended, "lock_acquires_uncontended")                        \
    X(LockContended, "lock_acquires_contended")                            \
    X(LockHandoffs, "lock_handoffs")                                       \
    X(DiskReadUser, "disk_reads_user")                                     \
    X(DiskWriteUser, "disk_writes_user")                                   \
    X(DiskReadBackground, "disk_reads_background")                         \
    X(DiskWriteBackground, "disk_writes_background")                       \
    X(DiskCompletions, "disk_completions")                                 \
    X(TrackBufferHits, "track_buffer_hits")                                \
    X(CpuJobs, "cpu_jobs")                                                 \
    X(UserReads, "user_reads")                                             \
    X(UserWrites, "user_writes")                                           \
    X(RmwWrites, "rmw_writes")                                             \
    X(ReconstructWrites, "reconstruct_writes")                             \
    X(MirroredWrites, "mirrored_writes")                                   \
    X(LargeWrites, "large_writes")                                         \
    X(DegradedReads, "degraded_reads")                                     \
    X(DegradedWrites, "degraded_writes")                                   \
    X(ParityLostWrites, "parity_lost_writes")                              \
    X(PiggybackWrites, "piggyback_writes")                                 \
    X(ReadRepairs, "read_repairs")                                         \
    X(ReconCycles, "recon_cycles")                                         \
    X(CopybackCycles, "copyback_cycles")                                   \
    X(HedgesLaunched, "hedges_launched")                                   \
    X(HedgeWins, "hedge_wins")                                             \
    X(HedgeWasted, "hedge_wasted")                                         \
    X(ScrubReads, "scrub_reads")                                           \
    X(ScrubRepairs, "scrub_repairs")

/** Per-phase tick histograms (power-of-two buckets). */
#define DECLUST_PERF_HIST_LIST(X)                                          \
    X(LockWaitTicks, "lock_wait_ticks")                                    \
    X(DiskQueueTicks, "disk_queue_ticks")                                  \
    X(DiskServiceTicks, "disk_service_ticks")                              \
    X(UserReadTicks, "user_read_ticks")                                    \
    X(UserWriteTicks, "user_write_ticks")                                  \
    X(ReconReadPhaseTicks, "recon_read_phase_ticks")                       \
    X(ReconWritePhaseTicks, "recon_write_phase_ticks")

enum class PerfCounter : std::size_t
{
#define DECLUST_PERF_ENUM(name, str) name,
    DECLUST_PERF_COUNTER_LIST(DECLUST_PERF_ENUM)
#undef DECLUST_PERF_ENUM
        kCount
};

enum class PerfHist : std::size_t
{
#define DECLUST_PERF_ENUM(name, str) name,
    DECLUST_PERF_HIST_LIST(DECLUST_PERF_ENUM)
#undef DECLUST_PERF_ENUM
        kCount
};

inline constexpr std::size_t kPerfCounterCount =
    static_cast<std::size_t>(PerfCounter::kCount);
inline constexpr std::size_t kPerfHistCount =
    static_cast<std::size_t>(PerfHist::kCount);

/**
 * Power-of-two bucket histogram: bucket i counts samples whose bit
 * width is i (i.e. values in [2^(i-1), 2^i)); bucket 0 counts zeros.
 */
struct Log2Hist
{
    std::array<std::uint64_t, 65> buckets{};

    void
    add(std::uint64_t value)
    {
        ++buckets[static_cast<std::size_t>(std::bit_width(value))];
    }

    std::uint64_t
    total() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t b : buckets)
            n += b;
        return n;
    }
};

/** One thread's counter state. */
struct PerfCounterBlock
{
    std::array<std::uint64_t, kPerfCounterCount> counters{};
    std::array<Log2Hist, kPerfHistCount> hists{};

    void
    addFrom(const PerfCounterBlock &other)
    {
        for (std::size_t i = 0; i < kPerfCounterCount; ++i)
            counters[i] += other.counters[i];
        for (std::size_t i = 0; i < kPerfHistCount; ++i)
            for (std::size_t b = 0; b < other.hists[i].buckets.size(); ++b)
                hists[i].buckets[b] += other.hists[i].buckets[b];
    }
};

/** Registry of live per-thread blocks plus retired-thread totals. */
class PerfRegistry
{
  public:
    void
    attach(PerfCounterBlock *block)
    {
        std::lock_guard<std::mutex> lock(mu_);
        live_.push_back(block);
    }

    void
    detach(PerfCounterBlock *block)
    {
        std::lock_guard<std::mutex> lock(mu_);
        retired_.addFrom(*block);
        for (std::size_t i = 0; i < live_.size(); ++i) {
            if (live_[i] == block) {
                live_[i] = live_.back();
                live_.pop_back();
                break;
            }
        }
    }

    /** Retired totals + all live blocks. Quiescent threads only. */
    PerfCounterBlock
    aggregate() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        PerfCounterBlock sum = retired_;
        for (const PerfCounterBlock *block : live_)
            sum.addFrom(*block);
        return sum;
    }

    /** Zero every live block and the retired totals (tests only). */
    void
    reset()
    {
        std::lock_guard<std::mutex> lock(mu_);
        retired_ = PerfCounterBlock{};
        for (PerfCounterBlock *block : live_)
            *block = PerfCounterBlock{};
    }

  private:
    mutable std::mutex mu_;
    PerfCounterBlock retired_;
    std::vector<PerfCounterBlock *> live_;
};

inline PerfRegistry &
perfRegistry()
{
    static PerfRegistry registry;
    return registry;
}

/** True when the counting sites are compiled in. */
constexpr bool
perfCountersEnabled()
{
    return DECLUST_PERF_COUNTERS != 0;
}

#if DECLUST_PERF_COUNTERS

namespace detail {

/**
 * Constant-initialized cache of the current thread's block. A plain
 * constinit thread_local is a single TLS load with no init-guard check,
 * which matters because every counting site goes through it.
 */
inline constinit thread_local PerfCounterBlock *perfTlsPtr = nullptr;

struct PerfTlsHolder
{
    PerfCounterBlock block;
    PerfTlsHolder()
    {
        perfRegistry().attach(&block);
        perfTlsPtr = &block;
    }
    ~PerfTlsHolder()
    {
        perfTlsPtr = nullptr;
        perfRegistry().detach(&block);
    }
};

[[gnu::noinline]] inline PerfCounterBlock &
perfTlsSlow()
{
    thread_local PerfTlsHolder holder;
    return holder.block;
}

} // namespace detail

/** This thread's counter block (registered on first use). */
inline PerfCounterBlock &
perfTls()
{
    if (PerfCounterBlock *block = detail::perfTlsPtr) [[likely]]
        return *block;
    return detail::perfTlsSlow();
}

#define DECLUST_PERF_INC(counter)                                          \
    (++declust::perfTls().counters[static_cast<std::size_t>(               \
        declust::PerfCounter::counter)])
#define DECLUST_PERF_ADD(counter, n)                                       \
    (declust::perfTls().counters[static_cast<std::size_t>(                 \
        declust::PerfCounter::counter)] +=                                 \
     static_cast<std::uint64_t>(n))
#define DECLUST_PERF_HIST(hist, value)                                     \
    (declust::perfTls()                                                    \
         .hists[static_cast<std::size_t>(declust::PerfHist::hist)]         \
         .add(static_cast<std::uint64_t>(value)))

#else

#define DECLUST_PERF_INC(counter) ((void)0)
#define DECLUST_PERF_ADD(counter, n) ((void)0)
#define DECLUST_PERF_HIST(hist, value) ((void)0)

#endif

/** JSON field name of a counter / histogram. */
const char *perfCounterName(PerfCounter counter);
const char *perfHistName(PerfHist hist);

/** Snapshot across all threads (call only while counting is quiescent). */
PerfCounterBlock perfAggregate();

/** Zero all counters (tests and measurement windows). */
void perfReset();

} // namespace declust
