/**
 * @file
 * Tests for the synthetic workload generator: arrival rates, read
 * fraction, uniform coverage, and start/stop semantics.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "core/array_sim.hpp"
#include "sim/rng.hpp"
#include "util/error.hpp"
#include "workload/closed_loop.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"
#include "workload/zipf.hpp"

namespace declust {
namespace {

SimConfig
baseConfig(double rate, double readFraction)
{
    SimConfig cfg;
    cfg.numDisks = 5;
    cfg.stripeUnits = 4;
    DiskGeometry g = DiskGeometry::ibm0661();
    g.cylinders = 20;
    g.tracksPerCyl = 2;
    cfg.geometry = g;
    cfg.accessesPerSec = rate;
    cfg.readFraction = readFraction;
    cfg.seed = 13;
    return cfg;
}

TEST(Workload, ArrivalRateMatches)
{
    ArraySimulation sim(baseConfig(50.0, 1.0));
    sim.runFaultFree(0.0, 20.0);
    const double measuredRate =
        static_cast<double>(sim.workload().issued()) / 20.0;
    EXPECT_NEAR(measuredRate, 50.0, 5.0);
}

TEST(Workload, ReadFractionRespected)
{
    ArraySimulation sim(baseConfig(60.0, 0.25));
    sim.runFaultFree(0.0, 15.0);
    const UserStats &us = sim.controller().userStats();
    const double frac =
        static_cast<double>(us.readsDone) /
        static_cast<double>(us.readsDone + us.writesDone);
    EXPECT_NEAR(frac, 0.25, 0.06);
}

TEST(Workload, AllReadsNeverWrite)
{
    ArraySimulation sim(baseConfig(60.0, 1.0));
    sim.runFaultFree(0.0, 5.0);
    EXPECT_EQ(sim.controller().userStats().writesDone, 0u);
    EXPECT_GT(sim.controller().userStats().readsDone, 0u);
}

TEST(Workload, StopHaltsArrivals)
{
    ArraySimulation sim(baseConfig(60.0, 0.5));
    sim.runFaultFree(0.0, 2.0);
    sim.workload().stop();
    const auto issuedAtStop = sim.workload().issued();
    sim.eventQueue().runUntil(sim.eventQueue().now() + secToTicks(2.0));
    EXPECT_EQ(sim.workload().issued(), issuedAtStop);
    EXPECT_EQ(sim.workload().completed(), issuedAtStop);
}

TEST(Workload, RestartResumesCleanly)
{
    ArraySimulation sim(baseConfig(60.0, 0.5));
    sim.runFaultFree(0.0, 1.0);
    sim.drain();
    const auto before = sim.workload().issued();
    sim.workload().start();
    sim.eventQueue().runUntil(sim.eventQueue().now() + secToTicks(2.0));
    EXPECT_GT(sim.workload().issued(), before);
}

TEST(Workload, UniformCoverageAcrossDisks)
{
    // Under a 100%-read uniform workload every disk should see a similar
    // number of accesses (the data mapping spreads units evenly).
    ArraySimulation sim(baseConfig(80.0, 1.0));
    sim.runFaultFree(0.0, 20.0);
    std::uint64_t mn = UINT64_MAX, mx = 0;
    for (int d = 0; d < sim.controller().numDisks(); ++d) {
        const auto reads = sim.controller().disk(d).stats().reads;
        mn = std::min(mn, reads);
        mx = std::max(mx, reads);
    }
    EXPECT_GT(mn, 0u);
    EXPECT_LT(static_cast<double>(mx - mn),
              0.35 * static_cast<double>(mx));
}

class ClosedLoopTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SimConfig cfg = baseConfig(60.0, 0.5);
        sim = std::make_unique<ArraySimulation>(cfg);
    }

    ClosedLoopConfig
    config(int clients, double think = 0.0)
    {
        ClosedLoopConfig c;
        c.clients = clients;
        c.thinkTimeSec = think;
        c.readFraction = 1.0;
        c.seed = 5;
        return c;
    }

    std::unique_ptr<ArraySimulation> sim;
};

TEST_F(ClosedLoopTest, ConcurrencyBoundedByClients)
{
    ClosedLoopWorkload wl(sim->eventQueue(), sim->controller(),
                          config(4));
    wl.start();
    bool ok = true;
    // Concurrency can never exceed the client population.
    for (int i = 0; i < 20000; ++i) {
        if (!sim->eventQueue().step())
            break;
        ok = ok && sim->controller().outstandingUserOps() <= 4;
    }
    EXPECT_TRUE(ok);
    wl.stop();
    sim->eventQueue().runToCompletion();
}

TEST_F(ClosedLoopTest, MoreClientsMoreThroughput)
{
    auto throughput = [&](int clients) {
        SimConfig cfg = baseConfig(60.0, 1.0);
        cfg.seed = 17;
        ArraySimulation s(cfg);
        ClosedLoopWorkload wl(s.eventQueue(), s.controller(),
                              config(clients));
        wl.start();
        s.eventQueue().runUntil(secToTicks(10.0));
        const double rate = wl.throughput();
        wl.stop();
        s.eventQueue().runToCompletion();
        return rate;
    };
    EXPECT_GT(throughput(8), throughput(1) * 2.0);
}

TEST_F(ClosedLoopTest, ThinkTimeLowersThroughput)
{
    auto throughput = [&](double think) {
        SimConfig cfg = baseConfig(60.0, 1.0);
        ArraySimulation s(cfg);
        ClosedLoopWorkload wl(s.eventQueue(), s.controller(),
                              config(2, think));
        wl.start();
        s.eventQueue().runUntil(secToTicks(10.0));
        const double rate = wl.throughput();
        wl.stop();
        s.eventQueue().runToCompletion();
        return rate;
    };
    EXPECT_GT(throughput(0.0), throughput(0.2) * 1.5);
}

TEST_F(ClosedLoopTest, StopDrains)
{
    ClosedLoopWorkload wl(sim->eventQueue(), sim->controller(),
                          config(4));
    wl.start();
    sim->eventQueue().runUntil(secToTicks(2.0));
    wl.stop();
    sim->eventQueue().runToCompletion();
    EXPECT_TRUE(sim->controller().quiescent());
    EXPECT_GT(wl.completed(), 0u);
}

TEST_F(ClosedLoopTest, RejectsBadConfig)
{
    ClosedLoopConfig bad = config(0);
    EXPECT_ANY_THROW(ClosedLoopWorkload(sim->eventQueue(),
                                        sim->controller(), bad));
}

TEST(Trace, ParseRoundTrip)
{
    const std::vector<TraceRecord> records = {
        {0.0, RequestKind::Read, 10, 1},
        {0.5, RequestKind::Write, 20, 3},
        {1.25, RequestKind::Read, 0, 2},
    };
    std::stringstream ss;
    writeTrace(ss, records);
    const auto parsed = parseTrace(ss);
    EXPECT_EQ(parsed, records);
}

TEST(Trace, ParserHandlesCommentsAndDefaults)
{
    std::stringstream ss("# header\n\n0.0 R 5\n1.0 w 7 2\n");
    const auto records = parseTrace(ss);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].unitCount, 1);
    EXPECT_EQ(records[1].kind, RequestKind::Write);
    EXPECT_EQ(records[1].unitCount, 2);
}

TEST(Trace, ParserRejectsBadInput)
{
    {
        std::stringstream ss("0.0 X 5\n");
        EXPECT_ANY_THROW(parseTrace(ss));
    }
    {
        std::stringstream ss("1.0 R 5\n0.5 R 6\n"); // out of order
        EXPECT_ANY_THROW(parseTrace(ss));
    }
    {
        std::stringstream ss("0.0 R\n"); // missing unit
        EXPECT_ANY_THROW(parseTrace(ss));
    }
}

/** Parse @p text expecting a ConfigError; returns its message. */
std::string
traceError(const std::string &text)
{
    std::stringstream ss(text);
    try {
        parseTrace(ss);
    } catch (const ConfigError &e) {
        return e.what();
    }
    ADD_FAILURE() << "no ConfigError for: " << text;
    return {};
}

TEST(Trace, ParserDiagnosticsCarryLineNumbers)
{
    EXPECT_NE(traceError("# ok\n0.0 R 5\njunk R 5\n").find("line 3"),
              std::string::npos);
    EXPECT_NE(traceError("0.0 R 5\n1.0 R 5 2 junk\n").find("line 2"),
              std::string::npos);
    EXPECT_NE(traceError("2.0 R 5\n1.0 R 6\n").find("line 2"),
              std::string::npos);
}

TEST(Trace, ParserRejectsSilentMisparses)
{
    // Each of these parsed "successfully" under a naive stream reader
    // by dropping the bad token; all must be hard errors.
    const char *bad[] = {
        "0.0 R 5 xyz\n",         // non-numeric count (was: default 1)
        "0.0 R 5.7\n",           // fractional unit id (was: truncated)
        "0.0 R 5 1 9\n",         // trailing field (was: ignored)
        "nan R 5\n",             // unordered timestamp (was: accepted)
        "inf R 5\n",             // non-finite timestamp
        "-1.0 R 5\n",            // negative timestamp
        "0.0 R 5 0\n",           // zero count
        "0.0 R 5 -2\n",          // negative count
        "0.0 R -5\n",            // negative unit
        "0.0 R 5 99999999999\n", // count beyond int range
    };
    for (const char *text : bad) {
        std::stringstream ss(text);
        EXPECT_THROW(parseTrace(ss), ConfigError) << text;
    }
}

TEST(Trace, ParserAcceptsCarriageReturns)
{
    std::stringstream ss("0.0 R 5 2\r\n1.0 W 6\r\n");
    const auto records = parseTrace(ss);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].unitCount, 2);
    EXPECT_EQ(records[1].kind, RequestKind::Write);
    EXPECT_EQ(records[1].unitCount, 1);
}

TEST(Trace, ReplayIssuesAtRecordedTimes)
{
    ArraySimulation sim(baseConfig(60.0, 0.5));
    std::vector<TraceRecord> records;
    for (int i = 0; i < 20; ++i)
        records.push_back({i * 0.1, i % 2 ? RequestKind::Write
                                          : RequestKind::Read,
                           i * 3, 1});
    TraceWorkload trace(sim.eventQueue(), sim.controller(), records);
    trace.start();
    sim.eventQueue().runToCompletion();
    EXPECT_EQ(trace.issued(), 20u);
    EXPECT_TRUE(trace.done());
    // Last arrival at t=1.9s; completions shortly after.
    EXPECT_GE(ticksToSec(sim.eventQueue().now()), 1.9);
    sim.controller().verifyConsistency();
}

TEST(Trace, RejectsOutOfRangeUnits)
{
    ArraySimulation sim(baseConfig(60.0, 0.5));
    std::vector<TraceRecord> bad = {
        {0.0, RequestKind::Read, sim.controller().numDataUnits(), 1}};
    EXPECT_ANY_THROW(
        TraceWorkload(sim.eventQueue(), sim.controller(), bad));
}

TEST(Workload, RejectsBadConfig)
{
    SimConfig cfg = baseConfig(60.0, 0.5);
    EventQueue eq;
    ArrayParams params;
    params.geometry = cfg.geometry;
    ArrayController array(
        eq, makeLayout(cfg.numDisks, cfg.stripeUnits, cfg.geometry),
        params);
    WorkloadConfig bad;
    bad.accessesPerSec = -1;
    EXPECT_ANY_THROW(SyntheticWorkload(eq, array, bad));
    bad.accessesPerSec = 10;
    bad.readFraction = 1.5;
    EXPECT_ANY_THROW(SyntheticWorkload(eq, array, bad));
}

TEST(Zipf, ProbabilitiesNormalizeAndDecay)
{
    const ZipfSampler zipf(100, 0.9);
    double total = 0.0;
    for (std::int64_t r = 0; r < zipf.population(); ++r) {
        total += zipf.probability(r);
        if (r > 0) {
            EXPECT_LE(zipf.probability(r), zipf.probability(r - 1));
        }
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Zipf, AlphaZeroIsUniform)
{
    const ZipfSampler zipf(64, 0.0);
    for (std::int64_t r = 0; r < 64; ++r)
        EXPECT_NEAR(zipf.probability(r), 1.0 / 64.0, 1e-12);
}

/**
 * Chi-square goodness-of-fit of the alias sampler against the analytic
 * Zipf pmf. With n - 1 = 49 degrees of freedom the 99.9th-percentile
 * critical value is 85.35; a correct sampler exceeds it one run in a
 * thousand, and the fixed seed makes this run reproducible.
 */
TEST(Zipf, ChiSquareMatchesAnalyticPmf)
{
    const std::int64_t n = 50;
    const ZipfSampler zipf(n, 0.9);
    Rng rng(12345);
    const int draws = 200000;
    std::vector<std::int64_t> counts(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < draws; ++i) {
        const std::int64_t r = zipf.sample(rng);
        ASSERT_GE(r, 0);
        ASSERT_LT(r, n);
        counts[static_cast<std::size_t>(r)]++;
    }
    double chi2 = 0.0;
    for (std::int64_t r = 0; r < n; ++r) {
        const double expected = zipf.probability(r) * draws;
        ASSERT_GT(expected, 5.0); // chi-square validity condition
        const double diff =
            static_cast<double>(counts[static_cast<std::size_t>(r)]) -
            expected;
        chi2 += diff * diff / expected;
    }
    EXPECT_LT(chi2, 85.35) << "sampler deviates from Zipf(0.9) pmf";
}

TEST(Zipf, SampleIsDeterministicPerSeed)
{
    const ZipfSampler zipf(1000, 1.1);
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(zipf.sample(a), zipf.sample(b));
}

/** Each draw consumes exactly two RNG values (the documented budget). */
TEST(Zipf, SampleConsumesExactlyTwoDraws)
{
    const ZipfSampler zipf(100, 0.8);
    Rng a(99);
    Rng b(99);
    for (int i = 0; i < 100; ++i)
        zipf.sample(a);
    for (int i = 0; i < 200; ++i)
        b.next();
    EXPECT_EQ(a.next(), b.next());
}

TEST(Zipf, RejectsBadConfig)
{
    EXPECT_THROW(ZipfSampler(0, 0.9), ConfigError);
    EXPECT_THROW(ZipfSampler(10, -0.5), ConfigError);
}

} // namespace
} // namespace declust
