// Fixture: would-be determinism findings silenced by inline
// annotations. The self-test requires zero findings from this file —
// it proves suppression plumbing, not the checks themselves.

#include <chrono>
#include <unordered_map>

namespace fixture {

long
wallClockForDisplay()
{
    DECLUST_ANALYZE_SUPPRESS(
        "determinism-taint: progress display only, never fed to stats");
    const auto t = std::chrono::steady_clock::now();
    return t.time_since_epoch().count();
}

struct HostIndex
{
    DECLUST_ANALYZE_SUPPRESS(
        "determinism-unordered: operator-facing lookup cache; never "
        "iterated into simulation state");
    std::unordered_map<int, int> byId_;
};

} // namespace fixture
