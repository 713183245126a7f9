#include "harness/trial_runner.hpp"

#include <atomic>
#include <cstdint>
#include <mutex>

#include "harness/worker_pool.hpp"
#include "util/error.hpp"

namespace declust {

TrialRunner::TrialRunner(int jobs) : jobs_(resolveWorkers(jobs)) {}

TrialRunner::~TrialRunner() = default;

void
TrialRunner::run(int numTasks, const std::function<void(int)> &task,
                 const std::function<void(int, int)> &onTrialDone)
{
    DECLUST_ASSERT(task, "runner needs a task");
    // One-level scheduling is the shards == 1 corner of the grid.
    runSharded(
        numTasks, 1, [&task](int trial, int) { task(trial); }, {},
        onTrialDone);
}

void
TrialRunner::runSharded(int numTrials, int shards,
                        const std::function<void(int, int)> &item,
                        const std::function<void(int)> &mergeTrial,
                        const std::function<void(int, int)> &onItemDone)
{
    DECLUST_ASSERT(numTrials >= 0, "negative trial count");
    DECLUST_ASSERT(shards >= 1, "shards must be >= 1, got ", shards);
    DECLUST_ASSERT(item, "runner needs a work item");
    if (numTrials == 0)
        return;
    DECLUST_ASSERT(static_cast<long long>(numTrials) * shards <=
                       INT32_MAX,
                   "trials x shards overflows the work-item grid");
    const int total = numTrials * shards;

    if (jobs_ == 1) {
        // Inline serial path: no threads, identical to the pre-harness
        // drivers down to the order progress callbacks fire in.
        int finished = 0;
        for (int trial = 0; trial < numTrials; ++trial) {
            for (int shard = 0; shard < shards; ++shard) {
                item(trial, shard);
                if (shard == shards - 1 && mergeTrial)
                    mergeTrial(trial);
                ++finished;
                if (onItemDone)
                    onItemDone(finished, total);
            }
        }
        return;
    }

    std::atomic<int> next{0};
    // Per-trial countdown: the worker that retires a trial's last shard
    // runs its merge. acq_rel on the decrement makes every shard's
    // writes visible to the merging worker.
    std::vector<std::atomic<int>> remaining(
        static_cast<std::size_t>(numTrials));
    for (auto &r : remaining)
        r.store(shards, std::memory_order_relaxed);
    // Serializes the finished count, onItemDone and first-error
    // capture. Counting under the same lock as the callback keeps the
    // reported counts strictly increasing: a count taken outside it
    // could reach onItemDone after a later one.
    std::mutex mu;
    int done = 0;
    std::exception_ptr firstError;

    auto worker = [&](int) {
        for (;;) {
            const int i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= total)
                return;
            // Trial-major claim order: all shards of a trial go out
            // back-to-back, so one long sweep point saturates the pool.
            const int trial = i / shards;
            const int shard = i % shards;
            try {
                item(trial, shard);
                if (remaining[static_cast<std::size_t>(trial)].fetch_sub(
                        1, std::memory_order_acq_rel) == 1 &&
                    mergeTrial)
                    mergeTrial(trial);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (!firstError)
                    firstError = std::current_exception();
                // Park the claim counter past the end so idle workers
                // stop picking up new work items.
                next.store(total, std::memory_order_relaxed);
                return;
            }
            if (onItemDone) {
                std::lock_guard<std::mutex> lock(mu);
                onItemDone(++done, total);
            }
        }
    };

    // The worker body claims items off the shared counter until the
    // grid is exhausted, so handing it to min(jobs, total) persistent
    // workers (the caller among them) is equivalent to spawning
    // threads per call; the end of the round gives the caller the same
    // happens-before edge join() would for the results it reads next.
    if (!pool_)
        pool_ = std::make_unique<WorkerPool>(jobs_);
    const int participants = jobs_ < total ? jobs_ : total;
    pool_->runRound(participants, worker);

    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace declust
