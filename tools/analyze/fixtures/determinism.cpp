// Fixture: nondeterminism leaking into simulation results — wall-clock
// reads, unseeded randomness, std::<random> engines and distributions,
// and unordered containers (iteration order is address-dependent).
// EXPECT-ANALYZE: determinism-taint
// EXPECT-ANALYZE: determinism-unordered
// EXPECT-ANALYZE: determinism-std-random

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>
#include <unordered_map>

namespace fixture {

long
wallClockSeed()
{
    const auto t = std::chrono::steady_clock::now();
    std::random_device rd;
    const int noise = std::rand() + rand();
    return t.time_since_epoch().count() + noise + time(nullptr) +
           clock() + static_cast<long>(rd());
}

double
implementationDefinedHazard(unsigned long seed)
{
    std::mt19937_64 engine(seed);
    std::exponential_distribution<double> ttf(1.0);
    return ttf(engine);
}

struct TrialStats
{
    void merge(double v);
};

void
mergeShards(const std::unordered_map<int, double> &shards,
            TrialStats &stats)
{
    for (const auto &kv : shards)
        stats.merge(kv.second);
}

// Mentioning rand() or std::chrono in a comment must NOT fire, nor may
// the word "time" inside a diagnostic string literal:
inline const char *kMessage = "rotational time (not a wall-clock read)";

} // namespace fixture
