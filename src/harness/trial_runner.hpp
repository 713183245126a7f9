/**
 * @file
 * Thread-pool runner for independent simulation trials.
 *
 * Every experiment driver in bench/ sweeps a parameter grid where each
 * point is one self-contained simulation: its own EventQueue, its own
 * seed-derived RNGs, no shared mutable state. TrialRunner fans those
 * trials across worker threads and collects results in trial order, so
 * the emitted tables are byte-identical whatever the worker count —
 * parallelism changes only the wall clock, never the science.
 *
 * Determinism contract: a trial must touch nothing but its own state
 * (ArraySimulation already satisfies this: simulated time lives in the
 * per-trial EventQueue, randomness in per-trial RNGs seeded from the
 * trial's parameters). Under that contract per-seed results are
 * bit-identical between --jobs 1 and --jobs N; the jobs==1 path runs
 * inline on the calling thread with no pool at all, so serial runs are
 * also identical to the pre-harness drivers.
 */
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace declust {

class WorkerPool;

/**
 * Select the process-wide event-queue implementation by name ("heap" |
 * "calendar"); an empty name keeps the built-in default. Call once at
 * startup, before any trial runs — every trial's default-constructed
 * EventQueue picks the implementation up from here, so one flag flips
 * the whole sweep without threading a parameter through every driver.
 * @return false (after printing to stderr) on an unknown name.
 */
bool selectEventQueue(const std::string &name);

/** Fans independent trials across worker threads. */
class TrialRunner
{
  public:
    /**
     * @param jobs Worker threads; <= 0 selects the hardware thread
     *        count. The calling thread is one of the jobs, so jobs == 1
     *        never spawns a thread. The other jobs-1 threads live in a
     *        persistent WorkerPool created on the first parallel run
     *        and reused across calls, so thread creation is paid once,
     *        not per call.
     */
    explicit TrialRunner(int jobs);
    ~TrialRunner();

    TrialRunner(const TrialRunner &) = delete;
    TrialRunner &operator=(const TrialRunner &) = delete;

    /** Resolved worker count (>= 1). */
    int jobs() const { return jobs_; }

    /**
     * Invoke task(i) exactly once for every i in [0, numTasks), blocking
     * until all complete. Tasks are claimed in index order but may
     * finish out of order; @p onTrialDone (optional) is serialized and
     * told how many trials have finished — drive progress lines from it.
     * The first exception a task throws is rethrown on the caller after
     * all workers drain; remaining unclaimed tasks are abandoned.
     */
    void run(int numTasks, const std::function<void(int)> &task,
             const std::function<void(int done, int total)> &onTrialDone =
                 {});

    /**
     * Two-level scheduling over a trials × shards grid: invoke
     * item(trial, shard) exactly once for every cell, and
     * mergeTrial(trial) exactly once per trial, on whichever worker
     * completes the trial's last shard — strictly after all of that
     * trial's shards finished, and before that shard is reported done.
     *
     * Work items are claimed trial-major (all shards of trial 0, then
     * trial 1, ...), so with few trials every worker still finds a
     * shard to run — the point of sharding one long sweep point.
     *
     * Determinism: mergeTrial sees every shard's result regardless of
     * completion order; if it folds them in shard-index order its
     * output is identical whatever the worker count. @p onItemDone is
     * serialized and counts finished *shards* (total = trials×shards),
     * so progress moves within a single sharded trial. Exceptions
     * propagate as in run().
     */
    void runSharded(
        int numTrials, int shards,
        const std::function<void(int trial, int shard)> &item,
        const std::function<void(int trial)> &mergeTrial,
        const std::function<void(int done, int total)> &onItemDone = {});

  private:
    int jobs_;
    /** Persistent workers, created lazily on the first parallel run. */
    std::unique_ptr<WorkerPool> pool_;
};

/**
 * Typed convenience wrapper: run @p trials and return their results in
 * trial order (index i of the result vector came from trials[i]).
 */
template <typename R>
std::vector<R>
runTrialsOrdered(TrialRunner &runner,
                 const std::vector<std::function<R()>> &trials,
                 const std::function<void(int, int)> &onTrialDone = {})
{
    std::vector<R> results(trials.size());
    runner.run(
        static_cast<int>(trials.size()),
        [&](int i) {
            results[static_cast<std::size_t>(i)] =
                trials[static_cast<std::size_t>(i)]();
        },
        onTrialDone);
    return results;
}

/**
 * Typed two-level wrapper: run every (trial, shard) cell through
 * @p item, hand each trial's shard results — indexed by shard, whatever
 * order they finished in — to @p mergeTrial, and return the merged
 * results in trial order. Shard must be default-constructible; each
 * trial's shard vector is released as soon as the trial is merged.
 */
template <typename Shard, typename Merged>
std::vector<Merged>
runShardedOrdered(
    TrialRunner &runner, int numTrials, int shards,
    const std::function<Shard(int trial, int shard)> &item,
    const std::function<Merged(int trial, std::vector<Shard> &shardResults)>
        &mergeTrial,
    const std::function<void(int, int)> &onItemDone = {})
{
    std::vector<std::vector<Shard>> parts(
        static_cast<std::size_t>(numTrials));
    for (auto &p : parts)
        p.resize(static_cast<std::size_t>(shards));
    std::vector<Merged> results(static_cast<std::size_t>(numTrials));
    runner.runSharded(
        numTrials, shards,
        [&](int trial, int shard) {
            parts[static_cast<std::size_t>(trial)]
                 [static_cast<std::size_t>(shard)] = item(trial, shard);
        },
        [&](int trial) {
            auto &mine = parts[static_cast<std::size_t>(trial)];
            results[static_cast<std::size_t>(trial)] =
                mergeTrial(trial, mine);
            mine.clear();
            mine.shrink_to_fit();
        },
        onItemDone);
    return results;
}

} // namespace declust
