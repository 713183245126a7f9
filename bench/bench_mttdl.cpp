/**
 * @file
 * Monte Carlo MTTDL campaign: simulate thousands of failure→repair
 * windows per declustering ratio and compare the measured data-loss
 * rate against the closed-form MTTDL model (paper section 2).
 *
 * Each window fails one disk under load, arms an exponential
 * second-failure hazard over the C-1 survivors (per-disk MTBF
 * accelerated into sim-seconds so losses are observable at N ≈ 10^3),
 * and reconstructs to completion. A window "loses data" when the
 * controller records at least one data-loss event — a second whole-disk
 * failure dooming stripes, or an unrecoverable medium error on a
 * survivor. The table prints the measured loss rate with its 95%
 * binomial interval next to the analytic 1 - exp(-(C-1)·T/MTBF), the
 * repair-window length the measurement implies, and both MTTDLs —
 * plus the paper-scale mttdlFromReconstruction() anchor at a real
 * 150k-hour disk MTBF.
 *
 * One trial per stripe size; --shards splits each trial's windows into
 * contiguous ranges, one per shard. A window's seed depends only on
 * (seed, G, window index), so the aggregate — and the --campaign
 * record — is bit-identical for any (--jobs, --shards) combination.
 */
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "core/failure_window.hpp"
#include "model/mttdl_campaign.hpp"
#include "model/reliability.hpp"

namespace {

/** Raw statistics one shard (a contiguous window range) produces. */
struct MttdlShard
{
    declust::CampaignAggregate agg;
    std::uint64_t events = 0;
    double simSec = 0.0;
};

} // namespace

static int
run(int argc, char **argv)
{
    using namespace declust;
    using namespace declust::bench;

    Options opts("Monte Carlo MTTDL campaign vs the closed-form model");
    addCommonOptions(opts);
    addShardOption(opts);
    opts.add("windows", "1000", "failure windows per stripe size");
    opts.add("mtbf", "20000",
             "accelerated per-disk MTBF in simulated seconds");
    opts.add("rate", "105", "user accesses per second during repair");
    opts.add("stripes", "3,6,10,21", "stripe sizes G to sweep");
    opts.add("latent", "0",
             "latent sector-error probability per sector");
    opts.add("transient", "0",
             "transient read-error probability per access");
    opts.add("retries", "3", "re-reads before a medium error");
    opts.add("campaign",
             "", "write a deterministic campaign record (no wall-clock "
                 "fields; golden-comparable) to this file");
    addRobustnessOptions(opts);
    if (!opts.parse(argc, argv))
        return 1;
    if (!bench::applyDataPlaneOption(opts))
        return 1;
    const int shards = shardsFrom(opts);
    if (!shards)
        return 1;
    {
        // Validate the robustness spec once, up front, instead of
        // letting every worker shard trip over a malformed list.
        SimConfig probe;
        if (!applyRobustnessOptions(opts, &probe))
            return 1;
    }

    const int windows = static_cast<int>(opts.getInt("windows"));
    const double mtbfSec = opts.getDouble("mtbf");
    const auto baseSeed =
        static_cast<std::uint64_t>(opts.getInt("seed"));
    const int disks = 21;

    if (windows <= 0) {
        std::cerr << "bench_mttdl: --windows must be positive\n";
        return 1;
    }

    const std::vector<long> stripes = opts.getIntList("stripes");

    // Shard `shard` of a trial covers the contiguous window range
    // [firstWindow(shard), firstWindow(shard) + share); window w's
    // seed depends only on (baseSeed, G, w), never on the split.
    auto firstWindow = [windows, shards](int shard) {
        return shard * (windows / shards) +
               std::min(shard, windows % shards);
    };

    TablePrinter table({"alpha", "G", "windows", "2nd fail", "losses",
                        "recon s", "p_meas", "ci95", "p_model",
                        "T_hat s", "mttdl_meas h", "mttdl_model h",
                        "mttdl@150kh", "agree"});
    // Each trial's merged aggregate, in its own slot, for the campaign
    // record below.
    std::vector<CampaignAggregate> aggs(stripes.size());
    std::vector<ShardedTrial<MttdlShard>> trials;
    for (std::size_t trial = 0; trial < stripes.size(); ++trial) {
        const int G = static_cast<int>(stripes[trial]);
        trials.push_back(
            {[&opts, firstWindow, windows, shards, mtbfSec, baseSeed,
              disks, G](int shard) {
                 FailureWindowConfig fw;
                 fw.sim.numDisks = disks;
                 fw.sim.stripeUnits = G;
                 fw.sim.geometry = geometryFrom(opts);
                 fw.sim.accessesPerSec = opts.getDouble("rate");
                 fw.sim.readFraction = 0.5;
                 fw.sim.algorithm = ReconAlgorithm::Baseline;
                 fw.sim.latentErrorProb = opts.getDouble("latent");
                 fw.sim.transientReadProb = opts.getDouble("transient");
                 fw.sim.faultMaxRetries =
                     static_cast<int>(opts.getInt("retries"));
                 // A scrub interval (or any other robustness knob)
                 // applies to every window: the scrubber drains latent
                 // defects between the failure and the survivor reads
                 // that would trip on them.
                 applyRobustnessOptions(opts, &fw.sim);
                 fw.mtbfSimSec = mtbfSec;
                 fw.warmupSec = opts.getDouble("warmup");

                 const std::uint64_t gSeed = splitmix64(taggedSeed(
                     baseSeed, static_cast<std::uint64_t>(G) << 32));
                 const int first = firstWindow(shard);
                 const int share = shardShare(windows, shard, shards);

                 MttdlShard result;
                 for (int i = 0; i < share; ++i) {
                     fw.windowSeed = splitmix64(taggedSeed(
                         gSeed, static_cast<std::uint64_t>(first + i)));
                     const WindowResult wr = runFailureWindow(fw);
                     ++result.agg.windows;
                     result.agg.secondFailures += wr.secondFailure;
                     result.agg.losses += wr.dataLoss;
                     result.agg.totalReconSec += wr.reconSec;
                     result.agg.unrecoverableStripes +=
                         wr.unrecoverableStripes;
                     result.agg.mediumErrors +=
                         static_cast<long long>(wr.mediumErrors);
                     result.agg.sectorRepairs +=
                         static_cast<long long>(wr.sectorRepairs);
                     result.events += wr.events;
                     result.simSec += wr.simSec;
                 }
                 return result;
             },
             [&aggs, trial, mtbfSec, disks,
              G](std::vector<MttdlShard> &parts) {
                 MttdlShard &merged = parts[0];
                 for (std::size_t s = 1; s < parts.size(); ++s) {
                     merged.agg.merge(parts[s].agg);
                     merged.events += parts[s].events;
                     merged.simSec += parts[s].simSec;
                 }
                 const CampaignAggregate &agg = aggs[trial] = merged.agg;
                 const double alpha =
                     static_cast<double>(G - 1) / (disks - 1);
                 const double pMeas = agg.lossRate();
                 const double ci =
                     binomialCiHalfWidth(pMeas, agg.windows);
                 const double pModel = windowLossProbability(
                     mtbfSec, disks - 1, agg.meanReconSec());
                 const double tHat =
                     pMeas < 1.0
                         ? impliedWindowSec(pMeas, mtbfSec, disks - 1)
                         : 0.0;
                 const double mttdlMeas =
                     mttdlFromLossProbability(mtbfSec, disks, pMeas) /
                     3600.0;
                 const double mttdlModel =
                     mttdlFromLossProbability(mtbfSec, disks, pModel) /
                     3600.0;
                 const double paperMttdl = mttdlFromReconstruction(
                     disks, 150'000.0, agg.meanReconSec());
                 TrialResult result;
                 result.rows.push_back(
                     {fmtDouble(alpha, 2), std::to_string(G),
                      std::to_string(agg.windows),
                      std::to_string(agg.secondFailures),
                      std::to_string(agg.losses),
                      fmtDouble(agg.meanReconSec(), 1),
                      fmtDouble(pMeas, 4), fmtDouble(ci, 4),
                      fmtDouble(pModel, 4), fmtDouble(tHat, 1),
                      fmtDouble(mttdlMeas, 1), fmtDouble(mttdlModel, 1),
                      fmtDouble(paperMttdl, 0),
                      lossRateAgrees(pMeas, pModel, agg.windows)
                          ? "yes"
                          : "NO"});
                 result.events = merged.events;
                 result.simSec = merged.simSec;
                 return result;
             }});
    }
    const SweepOutcome out =
        runShardedTrials(opts, "bench_mttdl", table, trials, shards);

    JsonObject campaign;
    campaign.set("bench", "bench_mttdl")
        .set("seed", static_cast<std::int64_t>(baseSeed))
        .set("windows", windows)
        .set("mtbf_sim_sec", mtbfSec)
        .set("latent", opts.getDouble("latent"))
        .set("transient", opts.getDouble("transient"));
    // Only non-default robustness settings enter the record: the
    // default campaign JSON stays byte-identical to the goldens.
    if (opts.getDouble("scrub-interval") > 0)
        campaign.set("scrub_interval_sec",
                     opts.getDouble("scrub-interval"));
    if (opts.getDouble("hedge-after") > 0)
        campaign.set("hedge_after_ms", opts.getDouble("hedge-after"));
    if (!opts.getString("fail-slow").empty())
        campaign.set("fail_slow", opts.getString("fail-slow"));

    for (std::size_t gi = 0; gi < stripes.size(); ++gi) {
        const int G = static_cast<int>(stripes[gi]);
        const CampaignAggregate &agg = aggs[gi];
        const double pMeas = agg.lossRate();
        const double pModel = windowLossProbability(
            mtbfSec, disks - 1, agg.meanReconSec());
        JsonObject entry;
        entry.set("G", G)
            .set("windows", agg.windows)
            .set("second_failures", agg.secondFailures)
            .set("losses", agg.losses)
            .set("mean_recon_sec", agg.meanReconSec())
            .set("unrecoverable_stripes",
                 static_cast<std::int64_t>(agg.unrecoverableStripes))
            .set("medium_errors",
                 static_cast<std::int64_t>(agg.mediumErrors))
            .set("sector_repairs",
                 static_cast<std::int64_t>(agg.sectorRepairs))
            .set("p_meas", pMeas)
            .set("p_model", pModel)
            .set("agrees", lossRateAgrees(pMeas, pModel, agg.windows)
                               ? 1
                               : 0);
        campaign.set("g" + std::to_string(G), entry);
    }

    std::cout << "Monte Carlo MTTDL campaign: " << windows
              << " failure windows per G, accelerated disk MTBF "
              << fmtDouble(mtbfSec, 0) << " sim-seconds\n";
    emit(opts, table);
    writeJsonRecord(opts, "bench_mttdl", out);

    const std::string campaignPath = opts.getString("campaign");
    if (!campaignPath.empty()) {
        std::ofstream file(campaignPath);
        if (!file) {
            std::cerr << "bench_mttdl: cannot write " << campaignPath
                      << "\n";
            return 1;
        }
        campaign.write(file);
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return declust::bench::runDriver(run, argc, argv);
}
