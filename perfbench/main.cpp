/**
 * @file
 * Benchmark driver: runs one workload for a fixed host-time budget and
 * writes the raw measurements as one JSON object (run.py turns them
 * into the reported metrics).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --workers W --out FILE [--spans FILE] [--tiny]
 *
 * Every run starts with an untimed reference pass.
 * --trace 0: untraced passes until S seconds have elapsed; for
 * cluster_rebuild one more pass at one worker checks the determinism
 * contract.
 * --trace 1: untraced passes for S/2 seconds, then one traced pass
 * (spans, the wall probe, perf counters, captured rung inputs), the
 * comparison passes the per-layer ratios need, and the layer rungs.
 * Spans are kept in memory and written to --spans at the end.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ec/kernels.hpp"
#include "perfbench.hpp"
#include "sim/event_queue.hpp"
#include "stats/perf_counters.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s;
}

/** Name of the default event queue; "heap" once the facade no longer
 * offers a choice of implementation. */
template <typename Q>
std::string
eventQueueName()
{
    if constexpr (requires { Q::implName(Q::defaultImpl()); })
        return Q::implName(Q::defaultImpl());
    else
        return "heap";
}

bool
optimizedBuild()
{
#ifdef __OPTIMIZE__
    return true;
#else
    return false;
#endif
}

std::string
fingerprintJson()
{
    std::ostringstream os;
    os << "{\"compiler\": " << quote(__VERSION__)
       << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
       << ", \"optimized\": " << (optimizedBuild() ? "true" : "false")
       << ", \"perf_counters\": " << DECLUST_PERF_COUNTERS
       << ", \"validate\": " << DECLUST_VALIDATE
       << ", \"ec_tier\": "
       << quote(declust::ec::tierName(declust::ec::activeTier()))
       << ", \"cpu_features\": " << quote(declust::ec::cpuFeatureString())
       << ", \"event_queue\": "
       << quote(eventQueueName<declust::EventQueue>()) << "}";
    return os.str();
}

std::string
passJson(const PassResult &p)
{
    std::ostringstream os;
    os << "{\"wall_s\": " << num(p.wallSec) << ", \"cpu_s\": "
       << num(p.cpuSec) << ", \"setup_s\": " << num(p.setupSec)
       << ", \"model_recon_s\": " << num(p.modelReconSec)
       << ", \"model_resp_p99_ms\": " << num(p.modelRespP99Ms)
       << ", \"events\": " << p.events << ", \"units\": [";
    for (std::size_t i = 0; i < p.units.size(); ++i) {
        const UnitRecord &u = p.units[i];
        os << (i ? ", " : "") << "{\"out\": " << quote(u.output)
           << ", \"ms\": " << num(u.hostMs) << ", \"cpu_ms\": "
           << num(u.cpuMs) << ", \"setup_ms\": " << num(u.setupMs)
           << ", \"n\": " << u.count
           << ", \"err\": " << quote(u.error) << "}";
    }
    os << "]}";
    return os.str();
}

/** Self time of every span name: duration minus what children cover. */
std::map<std::string, double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                  s.end);
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &k = kids[i];
        std::sort(k.begin(), k.end());
        double covered = 0.0;
        double reach = s.start;
        for (const auto &[a, b] : k) {
            const double lo = std::max(a, reach);
            const double hi = std::min(b, s.end);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, std::min(b, s.end));
        }
        self[s.name] += (s.end - s.start) - covered;
    }
    return self;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream f(path);
    if (!f)
        throw std::runtime_error("cannot write " + path);
    const double t0 = spans.empty() ? 0.0 : spans.front().start;
    f << "name\tstart_s\tend_s\tparent\tunit\tthread\n";
    char buf[160];
    for (const Span &s : spans) {
        std::snprintf(buf, sizeof buf, "%s\t%.9f\t%.9f\t%d\t%lld\t%d\n",
                      s.name, s.start - t0, s.end - t0, s.parent,
                      static_cast<long long>(s.unit), s.thread);
        f << buf;
    }
}

/** Perf-block counter by its JSON name (0 when this build lacks it). */
std::uint64_t
counter(const declust::PerfCounterBlock &b, const std::string &name)
{
    for (std::size_t i = 0; i < declust::kPerfCounterCount; ++i)
        if (name == declust::perfCounterName(
                        static_cast<declust::PerfCounter>(i)))
            return b.counters[i];
    return 0;
}

/** Upper bound (ms) of the power-of-two tick bucket holding quantile
 * @p frac of histogram @p name (0 when empty or absent). */
double
histBoundMs(const declust::PerfCounterBlock &b, const std::string &name,
            double frac)
{
    for (std::size_t i = 0; i < declust::kPerfHistCount; ++i) {
        if (name != declust::perfHistName(static_cast<declust::PerfHist>(i)))
            continue;
        const declust::Log2Hist &h = b.hists[i];
        const std::uint64_t total = h.total();
        if (total == 0)
            return 0.0;
        const auto target =
            static_cast<std::uint64_t>(frac * static_cast<double>(total));
        std::uint64_t running = 0;
        for (std::size_t k = 0; k < h.buckets.size(); ++k) {
            running += h.buckets[k];
            if (running > target)
                return k == 0 ? 0.0
                              : static_cast<double>(
                                    (std::uint64_t{1} << k) - 1) /
                                    1000.0;
        }
    }
    return 0.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Args
{
    Settings settings;
    double seconds = 10.0;
    int trace = 0;
    std::string out;
    std::string spans;
};

bool
parseArgs(int argc, char **argv, Args *a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--tiny") {
            a->settings.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string val = argv[++i];
        if (key == "--workload")
            a->settings.workload = val;
        else if (key == "--seed")
            a->settings.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            a->seconds = std::atof(val.c_str());
        else if (key == "--trace")
            a->trace = std::atoi(val.c_str());
        else if (key == "--workers")
            a->settings.workers = std::max(1, std::atoi(val.c_str()));
        else if (key == "--out")
            a->out = val;
        else if (key == "--spans")
            a->spans = val;
        else
            return false;
    }
    const std::string &w = a->settings.workload;
    return (w == "recon_sweep" || w == "cluster_rebuild" ||
            w == "mttdl_verify") &&
           !a->out.empty() && a->seconds > 0;
}

/** Per-layer metrics of the traced run (0 where a layer is bypassed). */
std::vector<Metric>
layerMetrics(const Settings &s, const std::vector<PassResult> &untraced,
             const PassResult &traced, const declust::PerfCounterBlock &perf,
             const std::vector<RungResult> &rungs, const PassCapture &cap,
             const PassResult *singleWorker, const PassResult *planeOff,
             const std::vector<Span> &spans)
{
    std::map<std::string, double> rung;
    for (const RungResult &r : rungs)
        rung[r.name] = r.value;
    const bool cluster = s.workload == "cluster_rebuild";
    std::vector<Metric> m;
    auto add = [&m](const std::string &n, double v, const std::string &u) {
        m.push_back({n, v, u});
    };
    auto c = [&perf](const char *n) {
        return static_cast<double>(counter(perf, n));
    };

    const double events = static_cast<double>(traced.events);
    add("sim.events", events, "count");
    add("sim.host_ns_per_event",
        events > 0 ? traced.phaseHostSec * 1e9 / events : 0.0, "ns");
    add("sim.queue_spills", c("event_queue_spills"), "count");
    add("sim.queue_resizes", c("event_queue_resizes"), "count");
    add("sim.queue_rebuilds", c("event_queue_rebuilds"), "count");
    add("sim.callbacks_spilled",
        c("callbacks_spill_pooled") + c("callbacks_spill_heap"), "count");
    add("sim.hold_ns_per_op", rung["sim.hold_ns_per_op"], "ns");
    add("sim.hold_depth",
        std::max(1.0, std::round(median(cap.pendingDepths))), "count");

    add("disk.completions", c("disk_completions"), "count");
    add("disk.host_ns_per_request", rung["disk.host_ns_per_request"], "ns");
    add("disk.queue_ms_p50", histBoundMs(perf, "disk_queue_ticks", 0.50),
        "ms_bucket_ub");
    add("disk.queue_ms_p99", histBoundMs(perf, "disk_queue_ticks", 0.99),
        "ms_bucket_ub");
    add("disk.service_ms_p50",
        histBoundMs(perf, "disk_service_ticks", 0.50), "ms_bucket_ub");

    add("layout.host_ns_per_place", rung["layout.host_ns_per_place"], "ns");
    add("layout.table_bytes", cap.tableBytes, "bytes");
    add("setup.layout_s", rung["setup.layout_s"], "s");

    add("array.io_ops", c("io_ops_acquired"), "count");
    add("array.rmw_writes", c("rmw_writes"), "count");
    add("array.large_writes", c("large_writes"), "count");
    add("array.degraded_reads", c("degraded_reads"), "count");
    const double acquires =
        c("lock_acquires_uncontended") + c("lock_acquires_contended");
    add("lock.acquires", acquires, "count");
    add("lock.contended_frac",
        acquires > 0 ? c("lock_acquires_contended") / acquires : 0.0,
        "fraction");
    add("lock.wait_ms_p99", histBoundMs(perf, "lock_wait_ticks", 0.99),
        "ms_bucket_ub");
    add("lock.host_ns_per_pair", rung["lock.host_ns_per_pair"], "ns");

    add("recon.cycles", c("recon_cycles"), "count");
    add("recon.read_phase_ms_p50",
        histBoundMs(perf, "recon_read_phase_ticks", 0.50), "ms_bucket_ub");
    add("recon.write_phase_ms_p50",
        histBoundMs(perf, "recon_write_phase_ticks", 0.50), "ms_bucket_ub");
    add("phase.degraded_host_s", traced.degradedHostSec, "s");
    add("phase.recon_host_s", traced.reconHostSec, "s");

    std::vector<double> walls;
    for (const PassResult &p : untraced)
        walls.push_back(p.wallSec);
    const double untracedWall = median(walls);
    add("ec.xor_gbps_4k", rung["ec.xor_gbps_4k"], "GB/s");
    add("ec.gf_muladd_gbps_4k", rung["ec.gf_muladd_gbps_4k"], "GB/s");
    add("ec.verify_share",
        planeOff && untracedWall > 0
            ? (untracedWall - planeOff->wallSec) / untracedWall
            : 0.0,
        "fraction");

    add("router.host_ns_per_arrival", rung["router.host_ns_per_arrival"],
        "ns");
    add("router.redirects", static_cast<double>(traced.redirects), "count");
    const double busy = sum(traced.advanceWall);
    const double parallel = sum(traced.epochParallelSec);
    const int workers = s.workers;
    double straggler = 0.0;
    const std::size_t n = cluster ? static_cast<std::size_t>(
                                        cap.cluster.arrays)
                                  : 0;
    if (n > 0 && traced.advanceWall.size() >= n) {
        const std::size_t epochs = traced.advanceWall.size() / n;
        for (std::size_t e = 0; e < epochs; ++e) {
            const auto first = traced.advanceWall.begin() +
                               static_cast<std::ptrdiff_t>(e * n);
            const auto last = first + static_cast<std::ptrdiff_t>(n);
            const double mx = *std::max_element(first, last);
            double total = 0.0;
            for (auto it = first; it != last; ++it)
                total += *it;
            straggler += total > 0 ? mx / (total / static_cast<double>(n))
                                   : 0.0;
        }
        straggler /= static_cast<double>(epochs);
    }
    const double gaps = traced.epochGapSec.empty()
                            ? 0.0
                            : sum(traced.epochGapSec) /
                                  static_cast<double>(traced.epochGapSec.size());
    add("barrier.serial_ms_per_epoch", gaps * 1e3, "ms");
    add("advance.busy_s", busy, "s");
    const double busy1 = singleWorker ? sum(singleWorker->advanceWall) : 0.0;
    add("advance.inflation",
        busy1 > 0 ? busy / busy1 : (cluster && busy > 0 ? 1.0 : 0.0),
        "ratio");
    add("worker.idle_frac",
        parallel > 0 ? 1.0 - busy / (workers * parallel) : 0.0, "fraction");
    add("advance.max_over_mean", straggler, "ratio");

    add("trace.overhead_s", traced.wallSec - untracedWall, "s");
    add("trace.overhead_frac",
        untracedWall > 0 ? (traced.wallSec - untracedWall) / untracedWall
                         : 0.0,
        "fraction");
    add("trace.spans", static_cast<double>(spans.size()), "count");
    const std::map<std::string, double> self = selfTimes(spans);
    for (const char *name : {"pass", "unit", "construct", "degraded",
                             "warmup", "recon", "cluster_run", "advance"}) {
        const auto it = self.find(name);
        add(std::string("self.") + name + "_s",
            it == self.end() ? 0.0 : it->second, "s");
    }
    return m;
}

int
run(const Args &a)
{
    const Settings &s = a.settings;
    std::ostringstream os;
    os << "{\"fingerprint\": " << fingerprintJson()
       << ", \"units_per_pass\": " << unitsPerPass(s) << ", \"passes\": [";

    // The first pass is the reference every later output is compared
    // with; it also warms caches and the allocator, so run.py leaves
    // it out of the timing statistics.
    std::vector<PassResult> passes;
    passes.push_back(runPass(s, PassOptions{}));
    // Memory of one pass: later passes only add allocator noise.
    const double rssMb = peakRssMb();
    const double start = nowSec();
    const double budget = a.trace ? a.seconds / 2 : a.seconds;
    do {
        passes.push_back(runPass(s, PassOptions{}));
    } while (nowSec() - start < budget);
    for (std::size_t i = 0; i < passes.size(); ++i)
        os << (i ? ", " : "") << passJson(passes[i]);
    os << "], \"peak_rss_mb\": " << num(rssMb);

    // Extra passes whose outputs must equal the reference pass: a
    // different worker count or data-plane mode, spans or the wall
    // probe may change host time only, never a simulated result.
    std::vector<std::pair<std::string, PassResult>> checks;
    const bool cluster = s.workload == "cluster_rebuild";
    if (!a.trace) {
        if (cluster && s.workers != 1) {
            PassOptions one;
            one.workers = 1;
            checks.emplace_back("workers_1", runPass(s, one));
        }
    } else {
        Tracer tracer;
        PassCapture cap;
        PassOptions traced;
        traced.tracer = &tracer;
        traced.capture = &cap;
        traced.wallProbe = true;
        declust::perfReset();
        checks.emplace_back("traced", runPass(s, traced));
        const declust::PerfCounterBlock perf = declust::perfAggregate();
        const PassResult *singleWorker = nullptr;
        const PassResult *planeOff = nullptr;
        if (cluster && s.workers != 1) {
            PassOptions one;
            one.workers = 1;
            one.wallProbe = true;
            checks.emplace_back("workers_1", runPass(s, one));
        }
        if (s.workload == "mttdl_verify") {
            PassOptions off;
            off.dataPlaneOff = true;
            checks.emplace_back("data_plane_off", runPass(s, off));
        }
        for (const auto &[label, pass] : checks) {
            if (label == "workers_1")
                singleWorker = &pass;
            if (label == "data_plane_off")
                planeOff = &pass;
        }
        const std::vector<RungResult> rungs = runRungs(s, cap, tracer);
        const std::vector<PassResult> timed(passes.begin() + 1,
                                            passes.end());
        const std::vector<Metric> layer =
            layerMetrics(s, timed, checks.front().second, perf, rungs, cap,
                         singleWorker, planeOff, tracer.spans());
        os << ", \"layer\": {";
        for (std::size_t i = 0; i < layer.size(); ++i)
            os << (i ? ", " : "") << quote(layer[i].name)
               << ": {\"value\": " << num(layer[i].value)
               << ", \"unit\": " << quote(layer[i].unit) << "}";
        os << "}, \"rungs\": [";
        for (std::size_t i = 0; i < rungs.size(); ++i)
            os << (i ? ", " : "") << "{\"name\": " << quote(rungs[i].name)
               << ", \"value\": " << num(rungs[i].value)
               << ", \"unit\": " << quote(rungs[i].unit)
               << ", \"samples\": " << rungs[i].samples
               << ", \"checksum\": " << rungs[i].checksum << "}";
        os << "]";
        if (!a.spans.empty())
            writeSpans(a.spans, tracer.spans());
    }
    os << ", \"checks\": {";
    for (std::size_t i = 0; i < checks.size(); ++i)
        os << (i ? ", " : "") << quote(checks[i].first) << ": "
           << passJson(checks[i].second);
    os << "}}\n";

    std::ofstream f(a.out);
    f << os.str();
    if (!f) {
        std::cerr << "perfbench: cannot write " << a.out << "\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, &a)) {
        std::cerr << "usage: perfbench --workload recon_sweep|"
                     "cluster_rebuild|mttdl_verify --seed N --seconds S "
                     "--trace 0|1 --workers W --out FILE [--spans FILE] "
                     "[--tiny]\n";
        return 2;
    }
    if (DECLUST_VALIDATE || !optimizedBuild()) {
        std::cerr << "perfbench: refusing to time a "
                  << (DECLUST_VALIDATE ? "DECLUST_VALIDATE=ON"
                                       : "unoptimized")
                  << " build\n";
        return 4;
    }
    try {
        return run(a);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
