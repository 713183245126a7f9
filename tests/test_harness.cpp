/**
 * @file
 * Tests for the experiment harness: TrialRunner's determinism contract
 * (results identical whatever the worker count, collected in trial
 * order), its exception propagation, and the JSON run-record writer.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/json_writer.hpp"
#include "harness/progress.hpp"
#include "harness/trial_runner.hpp"
#include "harness/worker_pool.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace declust {
namespace {

/**
 * A miniature trial: its own EventQueue and RNG, like every bench sweep
 * point. Returns a digest of the event schedule it executed, which must
 * not depend on which thread ran it.
 */
std::uint64_t
miniSimTrial(int index)
{
    EventQueue queue;
    Rng rng(static_cast<std::uint64_t>(index) + 1);
    std::uint64_t digest = 0;
    for (int i = 0; i < 200; ++i) {
        const Tick when = static_cast<Tick>(rng.uniformRange(1, 10000));
        queue.scheduleAt(when, [&digest, &queue] {
            digest = digest * 1099511628211ull ^
                     static_cast<std::uint64_t>(queue.now());
        });
    }
    queue.runToCompletion();
    return digest ^ queue.executed();
}

TEST(TrialRunner, ResolvesWorkerCount)
{
    EXPECT_EQ(TrialRunner(1).jobs(), 1);
    EXPECT_EQ(TrialRunner(7).jobs(), 7);
    EXPECT_GE(TrialRunner(0).jobs(), 1);  // hardware thread count
    EXPECT_GE(TrialRunner(-3).jobs(), 1);
}

TEST(TrialRunner, RunsEveryTaskExactlyOnce)
{
    for (int jobs : {1, 4}) {
        TrialRunner runner(jobs);
        constexpr int kTasks = 57;
        std::vector<std::atomic<int>> hits(kTasks);
        runner.run(kTasks, [&hits](int i) {
            hits[static_cast<std::size_t>(i)].fetch_add(1);
        });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(TrialRunner, SerialAndParallelResultsAreIdentical)
{
    constexpr int kTrials = 24;
    std::vector<std::function<std::uint64_t()>> trials;
    for (int i = 0; i < kTrials; ++i)
        trials.push_back([i] { return miniSimTrial(i); });

    TrialRunner serial(1);
    TrialRunner parallel(8);
    const auto a = runTrialsOrdered<std::uint64_t>(serial, trials);
    const auto b = runTrialsOrdered<std::uint64_t>(parallel, trials);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a, b); // bit-identical per trial, whatever the jobs count
}

TEST(TrialRunner, ResultsCollectedInTrialOrder)
{
    constexpr int kTrials = 40;
    std::vector<std::function<int()>> trials;
    for (int i = 0; i < kTrials; ++i)
        trials.push_back([i] {
            // Make early-indexed trials slower so naive completion-order
            // collection would reverse them.
            volatile int spin = (kTrials - i) * 2000;
            while (spin > 0)
                spin = spin - 1;
            return i * 3;
        });
    TrialRunner runner(8);
    const auto results = runTrialsOrdered<int>(runner, trials);
    for (int i = 0; i < kTrials; ++i)
        EXPECT_EQ(results[static_cast<std::size_t>(i)], i * 3);
}

TEST(TrialRunner, ProgressCallbackSeesEveryCompletion)
{
    for (int jobs : {1, 4}) {
        TrialRunner runner(jobs);
        static constexpr int kTasks = 31;
        std::vector<int> seen; // callback is serialized by contract
        runner.run(
            kTasks, [](int) {},
            [&seen](int done, int total) {
                EXPECT_EQ(total, kTasks);
                seen.push_back(done);
            });
        ASSERT_EQ(seen.size(), static_cast<std::size_t>(kTasks));
        // Monotone 1..kTasks: each completion reported exactly once.
        std::vector<int> expect(kTasks);
        std::iota(expect.begin(), expect.end(), 1);
        EXPECT_EQ(seen, expect);
    }
}

TEST(TrialRunner, FirstExceptionPropagatesToCaller)
{
    for (int jobs : {1, 4}) {
        TrialRunner runner(jobs);
        std::atomic<int> ran{0};
        EXPECT_THROW(runner.run(64,
                                [&ran](int i) {
                                    ran.fetch_add(1);
                                    if (i == 5)
                                        throw std::runtime_error("trial 5");
                                }),
                     std::runtime_error);
        // Workers drain and unclaimed work is abandoned, not lost track
        // of: at least the throwing task ran, and never more than all.
        EXPECT_GE(ran.load(), 1);
        EXPECT_LE(ran.load(), 64);
    }
}

TEST(TrialRunner, ZeroTasksIsANoOp)
{
    TrialRunner runner(4);
    bool called = false;
    runner.run(0, [&called](int) { called = true; });
    EXPECT_FALSE(called);
}

TEST(TrialRunner, ShardedRunsEveryCellExactlyOnce)
{
    static constexpr int kTrials = 9;
    static constexpr int kShards = 5;
    for (int jobs : {1, 4}) {
        TrialRunner runner(jobs);
        std::vector<std::atomic<int>> hits(kTrials * kShards);
        runner.runSharded(kTrials, kShards,
                          [&hits](int trial, int shard) {
                              hits[static_cast<std::size_t>(
                                       trial * kShards + shard)]
                                  .fetch_add(1);
                          },
                          {});
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(TrialRunner, ShardedMergeRunsOncePerTrialAfterItsShards)
{
    static constexpr int kTrials = 7;
    static constexpr int kShards = 4;
    for (int jobs : {1, 8}) {
        TrialRunner runner(jobs);
        std::vector<std::atomic<int>> shardsDone(kTrials);
        std::vector<std::atomic<int>> merges(kTrials);
        runner.runSharded(
            kTrials, kShards,
            [&shardsDone](int trial, int) {
                shardsDone[static_cast<std::size_t>(trial)].fetch_add(1);
            },
            [&shardsDone, &merges](int trial) {
                // The merge must observe every shard of its trial done.
                EXPECT_EQ(
                    shardsDone[static_cast<std::size_t>(trial)].load(),
                    kShards);
                merges[static_cast<std::size_t>(trial)].fetch_add(1);
            });
        for (const auto &m : merges)
            EXPECT_EQ(m.load(), 1);
    }
}

TEST(TrialRunner, ShardedOrderedIsDeterministicAcrossJobs)
{
    // A sharded mini-sim per (trial, shard) cell, merged in shard-index
    // order, must produce the same per-trial digests at any jobs count.
    static constexpr int kTrials = 6;
    static constexpr int kShards = 4;
    auto runAll = [&](int jobs) {
        TrialRunner runner(jobs);
        return runShardedOrdered<std::uint64_t, std::uint64_t>(
            runner, kTrials, kShards,
            [](int trial, int shard) {
                return miniSimTrial(trial * kShards + shard);
            },
            [](int, std::vector<std::uint64_t> &parts) {
                std::uint64_t digest = 0;
                for (std::uint64_t p : parts)
                    digest = digest * 1099511628211ull ^ p;
                return digest;
            });
    };
    const auto serial = runAll(1);
    const auto parallel = runAll(8);
    ASSERT_EQ(serial.size(), static_cast<std::size_t>(kTrials));
    EXPECT_EQ(serial, parallel);
}

TEST(TrialRunner, ShardedProgressCountsShardUnits)
{
    static constexpr int kTrials = 3;
    static constexpr int kShards = 6;
    for (int jobs : {1, 4}) {
        TrialRunner runner(jobs);
        std::vector<int> seen;
        runner.runSharded(
            kTrials, kShards, [](int, int) {}, {},
            [&seen](int done, int total) {
                EXPECT_EQ(total, kTrials * kShards);
                seen.push_back(done);
            });
        std::vector<int> expect(kTrials * kShards);
        std::iota(expect.begin(), expect.end(), 1);
        EXPECT_EQ(seen, expect);
    }
}

TEST(TrialRunner, ShardedExceptionPropagates)
{
    for (int jobs : {1, 4}) {
        TrialRunner runner(jobs);
        std::atomic<int> merges{0};
        EXPECT_THROW(
            runner.runSharded(8, 4,
                              [](int trial, int shard) {
                                  if (trial == 2 && shard == 1)
                                      throw std::runtime_error("cell");
                              },
                              [&merges](int) { merges.fetch_add(1); }),
            std::runtime_error);
        // The failed trial must never merge; others may or may not have.
        EXPECT_LE(merges.load(), 7);
    }
}

TEST(TrialRunner, ShardCountOneMatchesPlainRun)
{
    constexpr int kTrials = 12;
    TrialRunner runner(4);
    std::vector<std::function<std::uint64_t()>> trials;
    for (int i = 0; i < kTrials; ++i)
        trials.push_back([i] { return miniSimTrial(i); });
    const auto plain = runTrialsOrdered<std::uint64_t>(runner, trials);
    const auto sharded = runShardedOrdered<std::uint64_t, std::uint64_t>(
        runner, kTrials, 1,
        [](int trial, int) { return miniSimTrial(trial); },
        [](int, std::vector<std::uint64_t> &parts) { return parts[0]; });
    EXPECT_EQ(plain, sharded);
}

TEST(ProgressMeter, SilentWhenNotATtyAndClockAdvances)
{
    // Under ctest stderr is redirected, so update() must emit nothing;
    // this mostly asserts the calls are safe and the clock is sane.
    ProgressMeter meter("test_sweep");
    meter.update(1, 2);
    meter.update(2, 2);
    EXPECT_GE(meter.elapsedSec(), 0.0);
    testing::internal::CaptureStderr();
    meter.update(2, 2);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    meter.finish(2); // prints the one-line summary
}

TEST(JsonWriter, EmitsOrderedFieldsWithEscapes)
{
    JsonObject obj;
    obj.set("bench", "fig8\"quoted\"")
        .set("trials", 14)
        .set("events", std::uint64_t{16244217})
        .set("wall_sec", 3.5);
    const std::string s = obj.str();
    EXPECT_EQ(s, "{\n"
                 "  \"bench\": \"fig8\\\"quoted\\\"\",\n"
                 "  \"trials\": 14,\n"
                 "  \"events\": 16244217,\n"
                 "  \"wall_sec\": 3.5\n"
                 "}\n");
}

TEST(JsonWriter, DoublesRoundTrip)
{
    JsonObject obj;
    obj.set("ratio", 5436.1234567890123);
    const std::string s = obj.str();
    const double parsed = std::stod(s.substr(s.find(':') + 1));
    EXPECT_DOUBLE_EQ(parsed, 5436.1234567890123);
}

TEST(WorkerPool, RunsEveryRoundToCompletion)
{
    WorkerPool pool(4);
    EXPECT_EQ(pool.threads(), 4);
    // Many small rounds on the same pool — the cluster layer's usage
    // pattern (one round per epoch barrier, hundreds per run).
    for (int round = 0; round < 200; ++round) {
        std::atomic<int> next{0};
        std::vector<int> hits(16, 0);
        pool.runRound(4, [&next, &hits](int) {
            for (;;) {
                const int i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= static_cast<int>(hits.size()))
                    return;
                hits[static_cast<std::size_t>(i)] += 1;
            }
        });
        // runRound returning is the barrier: every item done once.
        for (const int h : hits)
            ASSERT_EQ(h, 1);
    }
}

TEST(WorkerPool, PartialParticipationLeavesOthersIdle)
{
    WorkerPool pool(4);
    std::atomic<int> ran{0};
    std::atomic<int> workerMask{0};
    const auto body = [&ran, &workerMask](int w) {
        ran.fetch_add(1);
        workerMask.fetch_or(1 << w);
    };
    pool.runRound(2, body);
    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(workerMask.load(), 0b11); // workers 0 and 1 only
    pool.runRound(4, body);
    EXPECT_EQ(ran.load(), 6);
    EXPECT_EQ(workerMask.load(), 0b1111);
}

TEST(WorkerPool, CallerIsWorkerZero)
{
    // A W-worker pool owns W-1 threads: worker 0 is the caller itself.
    WorkerPool pool(3);
    std::vector<std::thread::id> ids(3);
    pool.runRound(3, [&ids](int w) {
        ids[static_cast<std::size_t>(w)] = std::this_thread::get_id();
    });
    EXPECT_EQ(ids[0], std::this_thread::get_id());
    EXPECT_NE(ids[1], ids[0]);
    EXPECT_NE(ids[2], ids[0]);
    EXPECT_NE(ids[1], ids[2]);

    WorkerPool single(1);
    std::thread::id ran;
    single.runRound(1, [&ran](int) { ran = std::this_thread::get_id(); });
    EXPECT_EQ(ran, std::this_thread::get_id());
}

TEST(WorkerPool, RoundsAfterHelpersParkStillRun)
{
    // Helpers spin briefly between rounds, then park on the round
    // counter; a round issued after they parked must wake them all.
    WorkerPool pool(4);
    for (int round = 0; round < 3; ++round) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        std::atomic<int> ran{0};
        pool.runRound(4, [&ran](int) { ran.fetch_add(1); });
        ASSERT_EQ(ran.load(), 4);
    }
}

TEST(WorkerPool, RoundWritesAreVisibleToTheCaller)
{
    // Plain (non-atomic) writes from every worker must be visible once
    // runRound returns, and the caller's writes before the round must
    // be visible inside it — the barrier is the only synchronization.
    WorkerPool pool(4);
    std::vector<long> slots(4, 0);
    long seed = 0;
    for (int round = 1; round <= 500; ++round) {
        seed = round;
        pool.runRound(4, [&slots, &seed](int w) {
            slots[static_cast<std::size_t>(w)] = seed * 10 + w;
        });
        for (int w = 0; w < 4; ++w)
            ASSERT_EQ(slots[static_cast<std::size_t>(w)], round * 10L + w);
    }
}

TEST(TrialRunner, PoolIsReusedAcrossRuns)
{
    // Repeated parallel runs on one runner must keep working (the
    // persistent-pool refactor's regression risk is a second run
    // hanging on a stale generation).
    TrialRunner runner(3);
    for (int pass = 0; pass < 50; ++pass) {
        std::vector<int> out(7, 0);
        runner.run(7, [&out](int i) {
            out[static_cast<std::size_t>(i)] = i * i;
        });
        for (int i = 0; i < 7; ++i)
            ASSERT_EQ(out[static_cast<std::size_t>(i)], i * i);
    }
}

} // namespace
} // namespace declust
