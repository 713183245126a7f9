/**
 * @file
 * Persistent worker pool for round-based parallel sections.
 *
 * The cluster layer (src/cluster) enters a parallel section once per
 * epoch barrier — thousands of times per run, each round only tens of
 * microseconds of work per worker — so the cost of starting and
 * finishing a round is on the critical path of every epoch. WorkerPool
 * keeps its threads alive across rounds and hands rounds over through
 * one spin-then-park barrier:
 *
 *  - The caller of runRound is worker 0 and runs its share of the round
 *    itself; only workers 1..threads()-1 are helper threads. A W-worker
 *    pool therefore owns W-1 threads, and no thread sits blocked while
 *    the round runs.
 *  - Round start is a generation counter, round end a countdown of
 *    helpers still inside the body. A waiter spins on the atomic for a
 *    short, time-bounded stretch (the gap between epochs is usually
 *    shorter than a futex wake-up) and then parks on it with
 *    std::atomic::wait, so an idle pool burns no CPU.
 *  - Every body gets its worker index, so a caller can give each worker
 *    a fixed share of the work (the cluster's fixed array owners)
 *    instead of claiming items off a shared counter.
 *
 * The release/acquire pairs on the two counters give the caller a
 * happens-before edge over everything the helpers wrote in the round,
 * and give the helpers one over everything the caller wrote before it.
 *
 * Bodies MUST NOT throw (callers catch inside the body and rethrow on
 * the calling thread, as TrialRunner and ClusterRunner do).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace declust {

/** @p requested workers, or the hardware thread count when it is <= 0. */
int resolveWorkers(int requested);

/** Fixed set of workers executing one round body at a time. */
class WorkerPool
{
  public:
    /**
     * A pool of @p threads workers (>= 1): the runRound caller plus
     * threads-1 helper threads, which idle until the first round.
     */
    explicit WorkerPool(int threads);
    /** Wakes and joins every helper. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Workers in the pool, the calling thread included. */
    int threads() const { return static_cast<int>(helpers_.size()) + 1; }

    /**
     * Run body(w) once for every worker w in [0, participants)
     * (1 <= participants <= threads()): w = 0 on the calling thread,
     * the others on helpers. Returns when every participant has
     * returned. @p body must be thread-safe and must not throw.
     */
    void runRound(int participants, const std::function<void(int)> &body);

  private:
    void helperMain(int worker);

    std::vector<std::thread> helpers_;
    /** Round being served; bumped by runRound to start one. Own cache
     * line: helpers poll it while the caller writes the other one. */
    alignas(64) std::atomic<std::uint32_t> generation_{0};
    /** Helpers still running the current round's body. */
    alignas(64) std::atomic<int> remaining_{0};
    /** Round parameters, published by the generation_ release store. */
    const std::function<void(int)> *body_ = nullptr;
    int participants_ = 0;
    bool stopping_ = false;
};

} // namespace declust
