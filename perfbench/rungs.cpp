/**
 * @file
 * Layer rungs: each times one layer's public call in isolation, fed
 * with inputs a traced pass of the workload captured (its disk
 * accesses, address stream, queue depth, configuration and seed). Every
 * rung reports a sample count and a checksum of what the calls
 * returned, so the timed work cannot be optimized away.
 */
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "array/stripe_lock.hpp"
#include "cluster/router.hpp"
#include "disk/scheduler.hpp"
#include "ec/kernels.hpp"
#include "perfbench.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/seed.hpp"

namespace perfbench {

using namespace declust;

namespace {

/** Minimum host time each rung measures, seconds. */
constexpr double kRungSec = 0.25;

/** Repeat @p body (which returns operations done) for kRungSec. */
template <typename Body>
std::pair<double, std::uint64_t>
timeLoop(Body &&body)
{
    std::uint64_t ops = 0;
    const double t0 = nowSec();
    double elapsed = 0.0;
    do {
        ops += body();
        elapsed = nowSec() - t0;
    } while (elapsed < kRungSec);
    return {elapsed, ops};
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

/** Layouts keyed by the config fields makeLayout reads. */
class LayoutCache
{
  public:
    const Layout &
    get(const SimConfig &c)
    {
        const auto key = std::make_pair(c.stripeUnits, c.numDisks);
        auto it = layouts_.find(key);
        if (it == layouts_.end())
            it = layouts_
                     .emplace(key, makeLayout(c.numDisks, c.stripeUnits,
                                              c.geometry, c.unitSectors,
                                              c.distributedSparing))
                     .first;
        return *it->second;
    }

  private:
    std::map<std::pair<int, int>, std::unique_ptr<Layout>> layouts_;
};

/** Hold model: every dispatched event schedules one successor. */
struct HoldState
{
    EventQueue queue;
    std::vector<Tick> increments;
    std::size_t next = 0;
    std::uint64_t checksum = 0;

    void
    reschedule()
    {
        const Tick inc = increments[next++ & (increments.size() - 1)];
        queue.scheduleIn(inc, [this] {
            checksum += queue.now();
            reschedule();
        });
    }
};

RungResult
holdRung(const Settings &s, const PassCapture &cap)
{
    const double depth =
        std::max(1.0, std::round(median(cap.pendingDepths)));
    const double meanInc = std::max(1.0, depth * cap.meanEventGapTicks);
    HoldState h;
    Rng rng(mixSeed(s.seed, 0x401dull));
    h.increments.resize(4096);
    for (Tick &t : h.increments)
        t = 1 + static_cast<Tick>(rng.exponential(meanInc));
    for (int i = 0; i < static_cast<int>(depth); ++i)
        h.reschedule();
    const auto [sec, ops] = timeLoop([&h] {
        for (int i = 0; i < 65536; ++i)
            h.queue.step();
        return std::uint64_t{65536};
    });
    return {"sim.hold_ns_per_op", sec * 1e9 / static_cast<double>(ops),
            "ns", ops, h.checksum};
}

/** The disk with the most captured accesses, in capture order. */
std::vector<AccessRecord>
busiestDisk(const Capture &c)
{
    std::map<int, int> perDisk;
    for (const AccessRecord &r : c.accesses)
        ++perDisk[r.disk];
    int disk = -1;
    int most = 0;
    for (const auto &[d, n] : perDisk)
        if (n > most) {
            most = n;
            disk = d;
        }
    std::vector<AccessRecord> out;
    for (const AccessRecord &r : c.accesses)
        if (r.disk == disk)
            out.push_back(r);
    std::sort(out.begin(), out.end(),
              [](const AccessRecord &a, const AccessRecord &b) {
                  return a.enqueued < b.enqueued;
              });
    return out;
}

/**
 * Replay one disk's captured accesses, at their original arrival
 * offsets, through a fresh Disk::submit on its own event queue.
 */
RungResult
diskRung(const PassCapture &cap)
{
    std::vector<std::pair<const Capture *, std::vector<AccessRecord>>>
        streams;
    for (const Capture &c : cap.sims) {
        std::vector<AccessRecord> r = busiestDisk(c);
        if (!r.empty())
            streams.emplace_back(&c, std::move(r));
    }
    if (streams.empty())
        return {"disk.host_ns_per_request", 0.0, "ns", 0, 0};
    std::uint64_t checksum = 0;
    std::size_t next = 0;
    const auto [sec, ops] = timeLoop([&] {
        const auto &[c, records] = streams[next++ % streams.size()];
        const SimConfig &cfg = c->config;
        EventQueue eq;
        Disk disk(eq, cfg.geometry,
                  makeScheduler(cfg.scheduler, cfg.geometry.cylinders), 0);
        std::uint64_t done = 0;
        const Tick base = records.front().enqueued;
        for (const AccessRecord &r : records) {
            DiskRequest req;
            req.startSector = r.startSector;
            req.sectorCount = r.sectorCount;
            req.isWrite = r.isWrite;
            req.onComplete = [](void *ctx, IoStatus) {
                ++*static_cast<std::uint64_t *>(ctx);
            };
            req.ctx = &done;
            eq.scheduleAt(r.enqueued - base,
                          [&disk, req] { disk.submit(req); });
        }
        eq.runToCompletion();
        checksum += done + eq.now();
        return static_cast<std::uint64_t>(records.size());
    });
    return {"disk.host_ns_per_request", sec * 1e9 / static_cast<double>(ops),
            "ns", ops, checksum};
}

/** One captured address: the physical unit a disk access touched. */
struct Address
{
    const Layout *layout;
    int disk;
    int offset;
};

std::vector<Address>
addressStream(const PassCapture &cap, LayoutCache &layouts)
{
    std::vector<Address> out;
    for (const Capture &c : cap.sims) {
        const Layout &layout = layouts.get(c.config);
        for (const AccessRecord &r : c.accesses)
            out.push_back({&layout, r.disk,
                           static_cast<int>(r.startSector /
                                            c.config.unitSectors)});
    }
    return out;
}

/** Layout::invert then Layout::place over the captured addresses. */
RungResult
layoutRung(const std::vector<Address> &addresses)
{
    std::uint64_t checksum = 0;
    const auto [sec, ops] = timeLoop([&] {
        for (const Address &a : addresses) {
            const auto su = a.layout->invert(a.disk, a.offset);
            if (su) {
                const PhysicalUnit pu = a.layout->place(su->stripe, su->pos);
                checksum += static_cast<std::uint64_t>(pu.disk) +
                            static_cast<std::uint64_t>(pu.offset);
            }
        }
        return static_cast<std::uint64_t>(addresses.size());
    });
    return {"layout.host_ns_per_place",
            ops ? sec * 1e9 / static_cast<double>(ops) : 0.0, "ns", ops,
            checksum};
}

/** StripeLockTable acquire + release over the captured stripes. */
RungResult
lockRung(const std::vector<Address> &addresses)
{
    std::vector<std::int64_t> stripes;
    for (const Address &a : addresses)
        if (const auto su = a.layout->invert(a.disk, a.offset))
            stripes.push_back(su->stripe);
    if (stripes.empty())
        return {"lock.host_ns_per_pair", 0.0, "ns", 0, 0};
    StripeLockTable table;
    StripeLockTable::Waiter waiter;
    waiter.resume = [](StripeLockTable::Waiter *) {};
    const auto [sec, ops] = timeLoop([&] {
        for (const std::int64_t stripe : stripes)
            if (table.acquire(stripe, &waiter))
                table.release(stripe);
        return static_cast<std::uint64_t>(stripes.size());
    });
    return {"lock.host_ns_per_pair", sec * 1e9 / static_cast<double>(ops),
            "ns", ops, table.uncontended()};
}

/** makeLayout for each distinct config, times the constructions a
 * pass performs (median of three builds each). */
RungResult
layoutSetupRung(const PassCapture &cap)
{
    std::map<std::pair<int, int>, std::pair<const SimConfig *, int>> counts;
    for (const auto &[cfg, n] : cap.layouts) {
        auto &slot = counts[{cfg.stripeUnits, cfg.numDisks}];
        slot.first = &cfg;
        slot.second += n;
    }
    double total = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t checksum = 0;
    for (const auto &[key, entry] : counts) {
        const SimConfig &c = *entry.first;
        std::vector<double> t;
        for (int rep = 0; rep < 3; ++rep) {
            const double t0 = nowSec();
            const auto layout = makeLayout(c.numDisks, c.stripeUnits,
                                           c.geometry, c.unitSectors,
                                           c.distributedSparing);
            t.push_back(nowSec() - t0);
            checksum += static_cast<std::uint64_t>(layout->numStripes());
            ++samples;
        }
        total += median(t) * entry.second;
    }
    return {"setup.layout_s", total, "s", samples, checksum};
}

/** XOR and GF(256) multiply-add of G-1 stripe units into one, at the
 * dispatched tier, over buffers filled from the workload seed. */
std::vector<RungResult>
ecRungs(const Settings &s, const PassCapture &cap)
{
    int G = 2;
    int unitBytes = 4096;
    for (const Capture &c : cap.sims) {
        G = std::max(G, c.config.stripeUnits);
        unitBytes = c.config.unitSectors * 512;
    }
    const std::size_t n = static_cast<std::size_t>(unitBytes);
    const int sources = G - 1;
    Rng rng(mixSeed(s.seed, 0xec0ull));
    std::vector<std::vector<std::uint8_t>> src(
        static_cast<std::size_t>(sources), std::vector<std::uint8_t>(n));
    std::vector<std::uint8_t> coeff;
    for (auto &b : src)
        for (auto &byte : b)
            byte = static_cast<std::uint8_t>(rng.next());
    for (int i = 0; i < sources; ++i)
        coeff.push_back(static_cast<std::uint8_t>(1 + rng.uniformInt(255)));
    std::vector<std::uint8_t> dst(n, 0);
    const ec::Kernels &k = ec::kernels();

    auto fold = [&dst] {
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < dst.size(); i += 8)
            sum = sum * 31 + dst[i];
        return sum;
    };
    // Folding dst after every batch keeps the checksum live even when
    // repeated XORs cancel.
    std::uint64_t xsum = 0;
    const auto [xs, xops] = timeLoop([&] {
        for (int rep = 0; rep < 255; ++rep)
            for (const auto &b : src)
                k.xorInto(dst.data(), b.data(), n);
        xsum = xsum * 31 + fold();
        return std::uint64_t{255} * static_cast<std::uint64_t>(sources);
    });
    std::uint64_t gsum = 0;
    const auto [gs, gops] = timeLoop([&] {
        for (int rep = 0; rep < 255; ++rep)
            for (int i = 0; i < sources; ++i)
                k.gfMulAdd(dst.data(), src[static_cast<std::size_t>(i)].data(),
                           coeff[static_cast<std::size_t>(i)], n);
        gsum = gsum * 31 + fold();
        return std::uint64_t{255} * static_cast<std::uint64_t>(sources);
    });
    const double bytes = static_cast<double>(n);
    return {{"ec.xor_gbps_4k", static_cast<double>(xops) * bytes / xs / 1e9,
             "GB/s", xops, xsum},
            {"ec.gf_muladd_gbps_4k",
             static_cast<double>(gops) * bytes / gs / 1e9, "GB/s", gops,
             gsum}};
}

/** RequestRouter::route over the workload's epochs, all arrays healthy. */
RungResult
routerRung(const PassCapture &cap)
{
    const ClusterConfig &cfg = cap.cluster;
    const auto n = static_cast<std::size_t>(cfg.arrays);
    RequestRouter router(cfg, cap.clusterDataUnits);
    std::vector<ArrayCensus> census(n);
    std::vector<std::vector<Arrival>> buffers(n);
    std::vector<ClusterCounters> counters(n);
    const Tick epoch = secToTicks(cfg.epochSec);
    std::uint64_t arrivals = 0;
    std::uint64_t checksum = 0;
    const double t0 = nowSec();
    for (int e = 0; e < cap.clusterEpochs; ++e) {
        router.route(epoch * static_cast<Tick>(e),
                     epoch * static_cast<Tick>(e + 1), census, buffers,
                     counters);
        for (auto &b : buffers) {
            arrivals += b.size();
            if (!b.empty())
                checksum += static_cast<std::uint64_t>(b.back().firstUnit);
            b.clear();
        }
    }
    const double sec = nowSec() - t0;
    return {"router.host_ns_per_arrival",
            arrivals ? sec * 1e9 / static_cast<double>(arrivals) : 0.0, "ns",
            arrivals, checksum};
}

} // namespace

std::vector<RungResult>
runRungs(const Settings &s, const PassCapture &cap, Tracer &tracer)
{
    std::vector<RungResult> out;
    auto run = [&](const char *span, auto &&rung) {
        SpanScope scope(&tracer, span);
        out.push_back(rung());
    };
    run("rung.hold", [&] { return holdRung(s, cap); });
    run("rung.disk", [&] { return diskRung(cap); });
    LayoutCache layouts;
    const std::vector<Address> addresses = addressStream(cap, layouts);
    run("rung.layout", [&] { return layoutRung(addresses); });
    run("rung.lock", [&] { return lockRung(addresses); });
    run("rung.layout_setup", [&] { return layoutSetupRung(cap); });
    if (s.workload == "mttdl_verify") {
        SpanScope scope(&tracer, "rung.ec");
        for (RungResult &r : ecRungs(s, cap))
            out.push_back(std::move(r));
    }
    if (s.workload == "cluster_rebuild")
        run("rung.router", [&] { return routerRung(cap); });
    return out;
}

} // namespace perfbench
