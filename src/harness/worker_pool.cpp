#include "harness/worker_pool.hpp"

#include <chrono>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "util/error.hpp"

namespace declust {

namespace {

/**
 * How long a waiter polls before it parks. An epoch barrier usually
 * reopens within tens of microseconds, well under the cost of a futex
 * sleep and wake-up; a sweep trial lasts seconds, so a pool between
 * trials parks after this long and burns nothing more.
 */
constexpr std::chrono::microseconds kPollFor{100};
/** Polls that only pause the core, before polling starts to yield. */
constexpr unsigned kPausePolls = 64;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/**
 * Wait until @p done(value of @p a) holds and return that value.
 *
 * Three stages. A short pause loop catches the common hand-over, where
 * every worker sits on its own core. Then the waiter yields between
 * polls: when the host has fewer free cores than workers, a worker
 * that still has work can be queued behind a waiter on the same core,
 * and a waiter that only paused would hold that core for its whole
 * polling budget, every epoch. Finally it parks on the atomic.
 */
template <typename T, typename Done>
T
await(const std::atomic<T> &a, Done done)
{
    for (unsigned i = 0; i < kPausePolls; ++i) {
        const T v = a.load(std::memory_order_acquire);
        if (done(v))
            return v;
        cpuRelax();
    }
    const auto deadline = std::chrono::steady_clock::now() + kPollFor;
    for (unsigned i = 1;; ++i) {
        const T v = a.load(std::memory_order_acquire);
        if (done(v))
            return v;
        std::this_thread::yield();
        if (i % 8 == 0 && std::chrono::steady_clock::now() > deadline)
            break;
    }
    for (;;) {
        const T v = a.load(std::memory_order_acquire);
        if (done(v))
            return v;
        a.wait(v, std::memory_order_acquire);
    }
}

/**
 * Pin the calling helper thread to one CPU of the process's allowed
 * set: the @p helper-th CPU after the one @p home (the pool creator's
 * CPU), so helpers spread over the other CPUs first.
 *
 * Without it the threads do not spread. A woken thread tends to be
 * placed on its waker's CPU, and a round's work is too short for the
 * load balancer to catch up, so a pool whose rounds last microseconds
 * can run every worker on one CPU, one after another.
 */
void
pinHelper(int helper, int home)
{
#if defined(__linux__)
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    if (cpus.size() < 2)
        return;
    std::size_t start = 0;
    while (start < cpus.size() && cpus[start] != home)
        ++start;
    const int cpu =
        cpus[(start + static_cast<std::size_t>(helper)) % cpus.size()];
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
#else
    (void)helper;
    (void)home;
#endif
}

} // namespace

int
resolveWorkers(int requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

WorkerPool::WorkerPool(int threads)
{
    DECLUST_ASSERT(threads >= 1, "worker pool needs >= 1 thread, got ",
                   threads);
    helpers_.reserve(static_cast<std::size_t>(threads - 1));
#if defined(__linux__)
    const int home = sched_getcpu();
#else
    const int home = 0;
#endif
    for (int w = 1; w < threads; ++w)
        helpers_.emplace_back([this, w, home] {
            pinHelper(w, home);
            helperMain(w);
        });
}

WorkerPool::~WorkerPool()
{
    stopping_ = true;
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    for (auto &h : helpers_)
        h.join();
}

void
WorkerPool::runRound(int participants,
                     const std::function<void(int)> &body)
{
    DECLUST_ASSERT(participants >= 1 && participants <= threads(),
                   "round participants ", participants,
                   " out of range for a pool of ", threads());
    DECLUST_ASSERT(body, "round needs a body");
    if (helpers_.empty()) {
        body(0);
        return;
    }
    body_ = &body;
    participants_ = participants;
    remaining_.store(static_cast<int>(helpers_.size()),
                     std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    body(0);
    await(remaining_, [](int left) { return left == 0; });
}

void
WorkerPool::helperMain(int worker)
{
    std::uint32_t seen = 0;
    for (;;) {
        seen = await(generation_,
                     [seen](std::uint32_t g) { return g != seen; });
        if (stopping_)
            return;
        // Every helper checks in, participant or not, so the caller
        // never rewrites the round parameters while one is reading
        // them. Helpers beyond the participant count sit the round out.
        if (worker < participants_)
            (*body_)(worker);
        if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            remaining_.notify_one();
    }
}

} // namespace declust
