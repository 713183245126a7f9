/**
 * @file
 * Microbenchmark for the event core: the schedule/dispatch churn that
 * dominates the simulator's wall clock.
 *
 * Two modes:
 *
 *  - Default: google-benchmark microbenchmarks of schedule/dispatch
 *    churn at several pending populations.
 *
 *  - --hold-sweep [--json FILE]: the classic "hold" model — keep a
 *    fixed population pending, repeatedly pop the earliest and schedule
 *    a replacement — swept over pending population (1k / 10k / 100k) x
 *    increment distribution (exponential, and skewed-bimodal, which
 *    sends 10% of events far into the future). Every cell runs a
 *    deterministic schedule and reports ops/s plus a checksum over the
 *    dispatched stream, so two builds can be compared for speed and
 *    for dispatching exactly the same events (see EXPERIMENTS.md).
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness/json_writer.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace {

using namespace declust;

/** Deterministic delay stream; xorshift64, cheap next to the queue ops. */
struct DelayStream
{
    std::uint64_t state = 0x9e3779b97f4a7c15ull;

    Tick
    next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return static_cast<Tick>(state % 10000) + 1;
    }
};

/** Hold model with a callback whose capture fits the 48-byte SBO. */
void
BM_HoldSmallCallback(benchmark::State &state)
{
    const int depth = static_cast<int>(state.range(0));
    EventQueue queue;
    queue.reserve(static_cast<std::size_t>(depth) + 1);
    DelayStream delays;
    std::uint64_t sink = 0;
    for (int i = 0; i < depth; ++i)
        queue.scheduleIn(delays.next(), [&sink] { ++sink; });
    for (auto _ : state) {
        queue.step();
        queue.scheduleIn(delays.next(), [&sink] { ++sink; });
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_HoldSmallCallback)->Arg(64)->Arg(1024)->Arg(16384);

/** Same churn with a capture too large for the SBO: pooled spill path. */
void
BM_HoldSpillCallback(benchmark::State &state)
{
    const int depth = static_cast<int>(state.range(0));
    EventQueue queue;
    queue.reserve(static_cast<std::size_t>(depth) + 1);
    DelayStream delays;
    std::uint64_t sink = 0;
    struct Fat
    {
        std::uint64_t *sink;
        std::uint64_t pad[15]; // 128-byte capture: always spills
    };
    const auto schedule = [&] {
        Fat fat{&sink, {}};
        queue.scheduleIn(delays.next(), [fat] { ++*fat.sink; });
    };
    for (int i = 0; i < depth; ++i)
        schedule();
    for (auto _ : state) {
        queue.step();
        schedule();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_HoldSpillCallback)->Arg(64)->Arg(1024)->Arg(16384);

/** Fill-then-drain: pure push/pop throughput without steady state. */
void
BM_FillDrain(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    std::uint64_t sink = 0;
    for (auto _ : state) {
        EventQueue queue;
        DelayStream delays;
        for (int i = 0; i < n; ++i)
            queue.scheduleIn(delays.next(), [&sink] { ++sink; });
        queue.runToCompletion();
        benchmark::DoNotOptimize(queue.executed());
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FillDrain)->Arg(1024)->Arg(65536);

/** Same-tick FIFO burst: stresses the seq tie-break path. */
void
BM_SameTickBurst(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    std::uint64_t sink = 0;
    for (auto _ : state) {
        EventQueue queue;
        for (int i = 0; i < n; ++i)
            queue.scheduleAt(1000, [&sink] { ++sink; });
        queue.runToCompletion();
        benchmark::DoNotOptimize(queue.executed());
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SameTickBurst)->Arg(1024);

// ---------------------------------------------------------------------
// --hold-sweep: the hold model across pending populations.

/** Increment distributions for the hold model. */
enum class HoldDist
{
    Exponential,  ///< classic hold model: exp(mean 10000 ticks)
    SkewedBimodal ///< 90% near (uniform < 1000), 10% far (2^34 + u)
};

const char *
holdDistName(HoldDist dist)
{
    return dist == HoldDist::Exponential ? "exponential"
                                         : "skewed_bimodal";
}

Tick
holdDelay(Rng &rng, HoldDist dist)
{
    if (dist == HoldDist::Exponential)
        return static_cast<Tick>(rng.exponential(10000.0)) + 1;
    if (rng.bernoulli(0.10))
        return (Tick{1} << 34) + rng.uniformInt(1u << 20);
    return rng.uniformInt(1000) + 1;
}

struct HoldResult
{
    double wallSec = 0.0;
    double opsPerSec = 0.0;
    std::uint64_t checksum = 0;
};

/**
 * Warm a queue to @p population, then time @p holdOps pop+push pairs.
 * The checksum folds every dispatched tick in dispatch order, so any
 * change in dispatch order between two builds changes it.
 */
HoldResult
runHold(int population, HoldDist dist, std::uint64_t holdOps)
{
    EventQueue queue;
    queue.reserve(static_cast<std::size_t>(population) + 1);
    Rng rng(0x601d + static_cast<std::uint64_t>(population));
    std::uint64_t checksum = 0;
    const auto schedule = [&] {
        queue.scheduleIn(holdDelay(rng, dist), [&checksum, &queue] {
            checksum = checksum * 0x9e3779b97f4a7c15ull + queue.now();
        });
    };
    for (int i = 0; i < population; ++i)
        schedule();

    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t op = 0; op < holdOps; ++op) {
        queue.step();
        schedule();
    }
    const auto stop = std::chrono::steady_clock::now();

    HoldResult r;
    r.wallSec = std::chrono::duration<double>(stop - start).count();
    r.opsPerSec = r.wallSec > 0.0
                      ? static_cast<double>(holdOps) / r.wallSec
                      : 0.0;
    r.checksum = checksum;
    return r;
}

int
runHoldSweep(const std::string &jsonPath)
{
    const std::vector<int> populations = {1000, 10000, 100000};
    const std::vector<HoldDist> dists = {HoldDist::Exponential,
                                         HoldDist::SkewedBimodal};
    constexpr std::uint64_t kHoldOps = 2000000;

    JsonObject records;
    std::cout << "hold model, " << kHoldOps << " ops per cell\n";
    std::cout << "population  distribution          ops/s  checksum\n";
    for (int population : populations) {
        for (HoldDist dist : dists) {
            const HoldResult r = runHold(population, dist, kHoldOps);
            std::printf("%10d  %-15s  %10.0f  %016llx\n", population,
                        holdDistName(dist), r.opsPerSec,
                        static_cast<unsigned long long>(r.checksum));
            JsonObject cell;
            cell.set("population", population)
                .set("distribution", holdDistName(dist))
                .set("hold_ops", kHoldOps)
                .set("wall_sec", r.wallSec)
                .set("ops_per_sec", r.opsPerSec)
                .set("checksum", r.checksum);
            records.set(std::to_string(population) + "_" +
                            holdDistName(dist),
                        std::move(cell));
        }
    }

    if (!jsonPath.empty()) {
        JsonObject record;
        record.set("bench", "bench_event_queue_hold")
            .set("hold_ops", kHoldOps)
            .set("records", std::move(records));
        std::ofstream file(jsonPath);
        if (!file) {
            std::cerr << "cannot write " << jsonPath << "\n";
            return 1;
        }
        record.write(file);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool holdSweep = false;
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--hold-sweep") == 0)
            holdSweep = true;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
    }
    if (holdSweep)
        return runHoldSweep(jsonPath);

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
