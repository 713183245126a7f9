/**
 * @file
 * Tests for the parity layouts: left-symmetric RAID 5, the declustered
 * block-design layout, inverse-mapping round trips, and the section-4.1
 * criteria audit.
 */
#include <gtest/gtest.h>

#include "core/array_sim.hpp"
#include "designs/catalog.hpp"
#include "designs/generators.hpp"
#include "designs/select.hpp"
#include "layout/criteria.hpp"
#include "layout/declustered.hpp"
#include "layout/left_symmetric.hpp"
#include "layout/vulnerability.hpp"

namespace declust {
namespace {

TEST(LeftSymmetric, MatchesPaperFigure21)
{
    // Figure 2-1: 5 disks; row = offset, parity marches right to left.
    LeftSymmetricLayout lay(5, 5);
    // Stripe 0: D0.0..D0.3 on disks 0..3, P0 on disk 4.
    EXPECT_EQ(lay.place(0, 0), (PhysicalUnit{0, 0}));
    EXPECT_EQ(lay.place(0, 3), (PhysicalUnit{3, 0}));
    EXPECT_EQ(lay.placeParity(0), (PhysicalUnit{4, 0}));
    // Stripe 1: P1 on disk 3, D1.0 on disk 4, D1.1 wraps to disk 0.
    EXPECT_EQ(lay.placeParity(1), (PhysicalUnit{3, 1}));
    EXPECT_EQ(lay.place(1, 0), (PhysicalUnit{4, 1}));
    EXPECT_EQ(lay.place(1, 1), (PhysicalUnit{0, 1}));
    // Stripe 4: P4 on disk 0, data on 1..4.
    EXPECT_EQ(lay.placeParity(4), (PhysicalUnit{0, 4}));
    EXPECT_EQ(lay.place(4, 0), (PhysicalUnit{1, 4}));
}

TEST(LeftSymmetric, InverseRoundTrip)
{
    LeftSymmetricLayout lay(7, 21);
    for (std::int64_t s = 0; s < lay.numStripes(); ++s) {
        for (int pos = 0; pos < lay.stripeWidth(); ++pos) {
            const PhysicalUnit pu = lay.place(s, pos);
            const auto su = lay.invert(pu.disk, pu.offset);
            ASSERT_TRUE(su.has_value());
            EXPECT_EQ(su->stripe, s);
            EXPECT_EQ(su->pos, pos);
        }
    }
}

TEST(LeftSymmetric, MeetsAllCriteria)
{
    LeftSymmetricLayout lay(21, 210);
    const LayoutAudit audit = auditLayout(lay);
    EXPECT_TRUE(audit.singleFailureCorrecting);
    EXPECT_TRUE(audit.distributedReconstruction);
    EXPECT_TRUE(audit.distributedParity);
    EXPECT_TRUE(audit.largeWriteOptimization);
    EXPECT_TRUE(audit.maximalParallelism);
    EXPECT_EQ(audit.unmappedUnits, 0);
}

TEST(Declustered, MatchesPaperFigure23)
{
    // G=4 over C=5 from the complete design of figure 4-1 reproduces the
    // layout of figure 2-3 (first block design table).
    DeclusteredLayout lay(makeCompleteDesign(5, 4), 80);
    // Stripe 0: data on disks 0,1,2 offset 0; parity on disk 3 offset 0.
    EXPECT_EQ(lay.place(0, 0), (PhysicalUnit{0, 0}));
    EXPECT_EQ(lay.place(0, 1), (PhysicalUnit{1, 0}));
    EXPECT_EQ(lay.place(0, 2), (PhysicalUnit{2, 0}));
    EXPECT_EQ(lay.placeParity(0), (PhysicalUnit{3, 0}));
    // Stripe 1: data 0,1,2 offset 1; parity disk 4 offset 0.
    EXPECT_EQ(lay.place(1, 0), (PhysicalUnit{0, 1}));
    EXPECT_EQ(lay.placeParity(1), (PhysicalUnit{4, 0}));
    // Stripe 2: D2.0 disk0@2, D2.1 disk1@2, D2.2 disk3@1, P2 disk4@1.
    EXPECT_EQ(lay.place(2, 0), (PhysicalUnit{0, 2}));
    EXPECT_EQ(lay.place(2, 1), (PhysicalUnit{1, 2}));
    EXPECT_EQ(lay.place(2, 2), (PhysicalUnit{3, 1}));
    EXPECT_EQ(lay.placeParity(2), (PhysicalUnit{4, 1}));
    // Stripe 4: D4.0 disk1@3, D4.1 disk2@3, D4.2 disk3@3, P4 disk4@3.
    EXPECT_EQ(lay.place(4, 0), (PhysicalUnit{1, 3}));
    EXPECT_EQ(lay.placeParity(4), (PhysicalUnit{4, 3}));
}

TEST(Declustered, FullTableDimensions)
{
    BlockDesign d = makeCompleteDesign(5, 4); // b=5, r=4
    DeclusteredLayout lay(d, 80);
    EXPECT_EQ(lay.stripesPerFullTable(), 5 * 4);
    EXPECT_EQ(lay.unitsPerDiskPerFullTable(), 4 * 4);
    // 80 units/disk = 5 full tables, no partial.
    EXPECT_EQ(lay.numStripes(), 5 * 20);
    EXPECT_EQ(lay.unmappedUnits(), 0);
}

/** Round-trip and audit every appendix design over a realistic disk. */
class AppendixLayouts : public ::testing::TestWithParam<int>
{
};

TEST_P(AppendixLayouts, InverseRoundTripAndCriteria)
{
    const int G = GetParam();
    BlockDesign design = appendixDesign(G);
    const int unitsPerDisk = 1344; // 2 tracks/cyl scaled disk region
    DeclusteredLayout lay(design, unitsPerDisk);

    // Round trip over every mapped offset on every disk.
    std::int64_t mapped = 0;
    for (int disk = 0; disk < lay.numDisks(); ++disk) {
        for (int off = 0; off < unitsPerDisk; ++off) {
            const auto su = lay.invert(disk, off);
            if (!su)
                continue;
            ++mapped;
            const PhysicalUnit pu = lay.place(su->stripe, su->pos);
            EXPECT_EQ(pu.disk, disk);
            EXPECT_EQ(pu.offset, off);
        }
    }
    EXPECT_EQ(mapped, lay.numStripes() * G);
    EXPECT_EQ(mapped + lay.unmappedUnits(),
              static_cast<std::int64_t>(lay.numDisks()) * unitsPerDisk);

    // Criteria: perfect balance within whole tables; allow the partial
    // table to introduce a small spread.
    const LayoutAudit audit = auditLayout(lay, 0.15);
    EXPECT_TRUE(audit.singleFailureCorrecting);
    EXPECT_TRUE(audit.distributedReconstruction)
        << "spread " << audit.reconWorkSpread;
    EXPECT_TRUE(audit.distributedParity) << "spread " << audit.paritySpread;
    EXPECT_TRUE(audit.largeWriteOptimization);
}

INSTANTIATE_TEST_SUITE_P(Paper, AppendixLayouts,
                         ::testing::Values(3, 4, 5, 6, 10, 18));

TEST(Declustered, PerfectBalanceOnWholeTables)
{
    // Exactly 3 full tables: criteria 2 and 3 must hold exactly.
    BlockDesign d = appendixDesign(5); // b=21, r=5, G=5 -> 25 units/table
    DeclusteredLayout lay(d, 75);
    const LayoutAudit audit = auditLayout(lay, 0.0);
    EXPECT_TRUE(audit.distributedReconstruction);
    EXPECT_TRUE(audit.distributedParity);
    EXPECT_EQ(audit.unmappedUnits, 0);
    EXPECT_EQ(audit.reconWorkMin, audit.reconWorkMax);
}

TEST(Declustered, LambdaGovernsPairWork)
{
    // In one full table every surviving disk reads exactly lambda * G
    // units when any disk fails (lambda per block design table, G tables).
    BlockDesign d = appendixDesign(4); // lambda = 3
    DeclusteredLayout lay(d, d.r() * d.k()); // exactly one full table
    const LayoutAudit audit = auditLayout(lay, 0.0);
    EXPECT_EQ(audit.reconWorkMin, audit.reconWorkMax);
    EXPECT_EQ(audit.reconWorkMin,
              static_cast<std::int64_t>(d.lambda()) * d.k());
}

TEST(Declustered, PartialTableTruncatesCleanly)
{
    BlockDesign d = makeCompleteDesign(6, 3); // b=20, r=10, table=30/disk
    const int unitsPerDisk = 47;              // 1 full table + partial 17
    DeclusteredLayout lay(d, unitsPerDisk);
    EXPECT_GT(lay.numStripes(), 20 * 3); // more than one table's stripes
    EXPECT_GE(lay.unmappedUnits(), 0);
    // Everything that is mapped round-trips.
    for (int disk = 0; disk < 6; ++disk) {
        for (int off = 0; off < unitsPerDisk; ++off) {
            const auto su = lay.invert(disk, off);
            if (su) {
                EXPECT_EQ(lay.place(su->stripe, su->pos),
                          (PhysicalUnit{disk, off}));
            }
        }
    }
}

TEST(Declustered, AlphaAndCounts)
{
    DeclusteredLayout lay(appendixDesign(10), 800);
    EXPECT_NEAR(lay.alpha(), 0.45, 1e-9);
    EXPECT_EQ(lay.dataUnitsPerStripe(), 9);
    EXPECT_EQ(lay.numDataUnits(), lay.numStripes() * 9);
}

TEST(Declustered, DataMappingSequentialThroughStripes)
{
    DeclusteredLayout lay(appendixDesign(4), 320);
    const StripeUnit su = lay.dataUnitToStripe(7);
    EXPECT_EQ(su.stripe, 2);
    EXPECT_EQ(su.pos, 1);
    EXPECT_EQ(lay.stripeToDataUnit(su), 7);
}

TEST(Declustered, RejectsGEqualsC)
{
    EXPECT_ANY_THROW(DeclusteredLayout(makeCompleteDesign(5, 5), 100));
}

/**
 * Property sweep: for arbitrary array widths and stripe sizes, whatever
 * design the selection policy produces must yield a layout that is
 * single-failure correcting, balanced (within partial-table tolerance),
 * and invertible.
 */
class LayoutPropertySweep
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(LayoutPropertySweep, SelectedDesignMakesSoundLayout)
{
    const auto [C, G] = GetParam();
    SelectPolicy policy;
    policy.searchParams.restarts = 10;
    policy.searchParams.steps = 1500;
    const SelectedDesign sel = selectDesign(C, G, policy);
    ASSERT_TRUE(sel.design.verify().ok) << sel.design.name();

    // A deliberately awkward unitsPerDisk to exercise partial tables.
    const int unitsPerDisk = 501;
    DeclusteredLayout lay(sel.design, unitsPerDisk);

    // Balance tolerance depends on how much of a full table fits: whole
    // tables are perfectly balanced; a partial table wobbles a little; a
    // disk smaller than one table (huge complete designs -- the paper's
    // section 4.3 caveat) is only statistically balanced by the
    // shuffled-prefix ordering.
    const bool severelyTruncated =
        unitsPerDisk < lay.unitsPerDiskPerFullTable();
    const double tolerance = severelyTruncated ? 1.5 : 0.35;
    const LayoutAudit audit = auditLayout(lay, tolerance, 512);
    EXPECT_TRUE(audit.singleFailureCorrecting) << sel.design.name();
    EXPECT_TRUE(audit.distributedReconstruction)
        << sel.design.name() << " spread " << audit.reconWorkSpread;
    EXPECT_TRUE(audit.distributedParity)
        << sel.design.name() << " spread " << audit.paritySpread;
    EXPECT_TRUE(audit.largeWriteOptimization);

    // Spot-check inverse mapping on a pseudo-random sample.
    for (std::int64_t s = 0; s < lay.numStripes(); s += 37) {
        for (int pos = 0; pos < lay.stripeWidth(); ++pos) {
            const PhysicalUnit pu = lay.place(s, pos);
            const auto su = lay.invert(pu.disk, pu.offset);
            ASSERT_TRUE(su.has_value());
            EXPECT_EQ(su->stripe, s);
            EXPECT_EQ(su->pos, pos);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ManyShapes, LayoutPropertySweep,
    ::testing::Values(std::pair{5, 3}, std::pair{5, 4}, std::pair{7, 3},
                      std::pair{7, 4}, std::pair{9, 3}, std::pair{10, 4},
                      std::pair{11, 5}, std::pair{12, 6},
                      std::pair{13, 4}, std::pair{15, 3},
                      std::pair{16, 8}, std::pair{19, 3},
                      std::pair{21, 10}, std::pair{23, 11},
                      std::pair{24, 5}));

/**
 * The place/invert hot path is memoized: one block-design table of
 * placements plus multiply-shift (FastDiv) division by the table size.
 * These tests pin the memoized mapping to the on-the-fly computation —
 * plain / and % arithmetic lifting the first table down the disk — for
 * every stripe size in the paper's sweep.
 */
class MemoizedMapping : public ::testing::TestWithParam<int>
{
};

TEST_P(MemoizedMapping, PlaceAgreesWithOnTheFlyTiling)
{
    const int G = GetParam();
    BlockDesign d = appendixDesign(G);
    DeclusteredLayout lay(d, /*unitsPerDisk=*/1344);
    const int tableStripes = lay.stripesPerFullTable();
    const int tableUnits = lay.unitsPerDiskPerFullTable();

    for (std::int64_t s = 0; s < lay.numStripes(); ++s) {
        // On the fly: plain 64-bit division down to the first table,
        // whose own placements only exercise the trivial quotient 0.
        const std::int64_t table = s / tableStripes;
        const std::int64_t idx = s % tableStripes;
        for (int pos = 0; pos < G; ++pos) {
            const PhysicalUnit first = lay.place(idx, pos);
            const PhysicalUnit expect{
                first.disk,
                first.offset + static_cast<int>(table * tableUnits)};
            ASSERT_EQ(lay.place(s, pos), expect)
                << "G=" << G << " stripe=" << s << " pos=" << pos;
        }
    }
}

TEST_P(MemoizedMapping, InvertAgreesWithOnTheFlyTiling)
{
    const int G = GetParam();
    BlockDesign d = appendixDesign(G);
    // An awkward size: two full tables plus a ragged partial table.
    const int tableUnits = d.r() * d.k();
    const int unitsPerDisk = 2 * tableUnits + tableUnits / 3 + 1;
    DeclusteredLayout lay(d, unitsPerDisk);
    const int tableStripes = lay.stripesPerFullTable();

    for (int disk = 0; disk < lay.numDisks(); ++disk) {
        for (int off = 0; off < unitsPerDisk; ++off) {
            const auto su = lay.invert(disk, off);
            // On the fly: first-table inverse lifted by whole tables.
            const int table = off / tableUnits;
            const auto base = lay.invert(disk, off % tableUnits);
            ASSERT_TRUE(base.has_value()); // first table is fully mapped
            if (su) {
                EXPECT_EQ(su->stripe,
                          static_cast<std::int64_t>(table) * tableStripes +
                              base->stripe);
                EXPECT_EQ(su->pos, base->pos);
                // And the memoized round trip closes.
                EXPECT_EQ(lay.place(su->stripe, su->pos),
                          (PhysicalUnit{disk, off}));
            } else {
                // Unmapped only past the truncated partial table.
                EXPECT_EQ(table, lay.unitsPerDisk() / tableUnits);
            }
        }
    }
}

TEST_P(MemoizedMapping, DataUnitMappingAgreesWithPlainArithmetic)
{
    const int G = GetParam();
    DeclusteredLayout lay(appendixDesign(G), 1344);
    const int dataPerStripe = lay.dataUnitsPerStripe();
    for (std::int64_t u = 0; u < lay.numDataUnits();
         u += (u < 64 ? 1 : 97)) {
        const StripeUnit su = lay.dataUnitToStripe(u);
        EXPECT_EQ(su.stripe, u / dataPerStripe);
        EXPECT_EQ(su.pos, static_cast<int>(u % dataPerStripe));
        EXPECT_EQ(lay.stripeToDataUnit(su), u);
    }
}

INSTANTIATE_TEST_SUITE_P(PaperSweep, MemoizedMapping,
                         ::testing::Values(3, 4, 5, 6, 10, 18));

TEST(MemoizedMappingRaid5, LeftSymmetricAgreesWithPlainArithmetic)
{
    // G = C = 21, the paper sweep's RAID 5 endpoint.
    LeftSymmetricLayout lay(21, 210);
    for (std::int64_t s = 0; s < lay.numStripes(); ++s) {
        // Parity rotation via plain %, against the FastDiv-based place.
        EXPECT_EQ(lay.place(s, lay.stripeWidth() - 1).disk,
                  20 - static_cast<int>(s % 21));
        for (int pos = 0; pos < lay.stripeWidth(); ++pos) {
            const PhysicalUnit pu = lay.place(s, pos);
            EXPECT_EQ(pu.offset, static_cast<int>(s));
            const auto su = lay.invert(pu.disk, pu.offset);
            ASSERT_TRUE(su.has_value());
            EXPECT_EQ(su->stripe, s);
            EXPECT_EQ(su->pos, pos);
        }
    }
    for (std::int64_t u = 0; u < lay.numDataUnits(); u += 53) {
        const StripeUnit su = lay.dataUnitToStripe(u);
        EXPECT_EQ(su.stripe, u / lay.dataUnitsPerStripe());
        EXPECT_EQ(su.pos, static_cast<int>(u % lay.dataUnitsPerStripe()));
    }
}

TEST(LayoutOrdering, DupMajorMatchesPaperStaggeredBalancesPrefix)
{
    BlockDesign d = makeCompleteDesign(5, 4);
    // DupMajor with a full table: paper-exact placements.
    DeclusteredLayout dup(d, 80, TableOrder::DupMajor);
    EXPECT_EQ(dup.place(0, 0), (PhysicalUnit{0, 0}));
    EXPECT_EQ(dup.tableOrder(), TableOrder::DupMajor);

    // Staggered with a severely truncated table still balances parity.
    DeclusteredLayout stag(makeCompleteDesign(8, 4), 40,
                           TableOrder::Staggered);
    const LayoutAudit audit = auditLayout(stag, 0.45);
    EXPECT_TRUE(audit.distributedParity)
        << "spread " << audit.paritySpread;
    EXPECT_TRUE(audit.singleFailureCorrecting);
}

TEST(LayoutOrdering, OrderingsAgreeOnWholeTableBalance)
{
    // Any stripe ordering within whole tables produces identical
    // aggregate balance: both orderings must pass a zero-tolerance
    // audit over full tables.
    BlockDesign d = appendixDesign(5);
    const int units = d.r() * d.k() * 2;
    for (TableOrder order :
         {TableOrder::DupMajor, TableOrder::Staggered}) {
        DeclusteredLayout lay(appendixDesign(5), units, order);
        const LayoutAudit audit = auditLayout(lay, 0.0);
        EXPECT_TRUE(audit.distributedReconstruction);
        EXPECT_TRUE(audit.distributedParity);
    }
}

TEST(LayoutOrdering, MappingTableBytesReported)
{
    DeclusteredLayout lay(appendixDesign(4), 320);
    EXPECT_GT(lay.mappingTableBytes(), 0);
    LeftSymmetricLayout raid5(21, 320);
    EXPECT_EQ(raid5.mappingTableBytes(), 0);
}

TEST(LayoutOrdering, AutoPicksByTableFit)
{
    BlockDesign d = makeCompleteDesign(6, 3); // table = 30 units/disk
    DeclusteredLayout fits(d, 60);
    EXPECT_EQ(fits.tableOrder(), TableOrder::DupMajor);
    DeclusteredLayout cramped(makeCompleteDesign(6, 3), 20);
    EXPECT_EQ(cramped.tableOrder(), TableOrder::Staggered);
    // One whole table plus a partial one: the partial needs Staggered.
    DeclusteredLayout ragged(makeCompleteDesign(6, 3), 45);
    EXPECT_EQ(ragged.tableOrder(), TableOrder::Staggered);
}

TEST(SubTableLayout, BuildsOnlyTheAddressablePrefix)
{
    // The paper's G = 18 point at recon_sweep's disk: C(21,18) has
    // b = 1330, so one full table is r * G = 20,520 units per disk, and
    // a 5,694-unit disk addresses only its first stripes.
    const int C = 21;
    const int unitsPerDisk = 5694;
    DeclusteredLayout lay(appendixDesign(18), unitsPerDisk);
    ASSERT_LT(unitsPerDisk, lay.unitsPerDiskPerFullTable());
    EXPECT_LE(lay.mappingTableBytes(),
              std::int64_t{2} * 8 * C * unitsPerDisk);
    EXPECT_EQ(lay.numStripes(), 6454);
}

/**
 * A disk smaller than one table builds only the table's prefix, so it
 * must map exactly as the same design over a disk holding whole tables.
 * Each small disk still covers one pass through the tuples, so neither
 * layout shuffles the tuple order.
 */
TEST(SubTableLayout, PrefixMatchesWholeTableLayout)
{
    struct Case
    {
        BlockDesign design;
        std::vector<int> smallDisks;
    };
    const std::vector<Case> cases = {
        {appendixDesign(18), {1140, 5694, 20519}},
        {appendixDesign(10), {20, 97, 99}},
        {makeCompleteDesign(8, 4), {35, 97, 139}},
        {makeCompleteDesign(7, 3), {15, 31, 44}},
    };
    for (const Case &c : cases) {
        const int table = c.design.r() * c.design.k();
        for (TableOrder order :
             {TableOrder::Staggered, TableOrder::DupMajor}) {
            for (int slots = 1; slots <= 2; ++slots) {
                const DeclusteredLayout large(c.design, 2 * table + 7,
                                              order, slots);
                for (int units : c.smallDisks) {
                    ASSERT_LT(units, table);
                    ASSERT_GE(static_cast<std::int64_t>(units) *
                                  c.design.v() / c.design.k(),
                              c.design.b());
                    const DeclusteredLayout small(c.design, units, order,
                                                  slots);
                    SCOPED_TRACE(c.design.name() + " units=" +
                                 std::to_string(units) + " slots=" +
                                 std::to_string(slots));
                    ASSERT_GT(small.numStripes(), 0);
                    for (std::int64_t s = 0; s < small.numStripes(); ++s)
                        for (int pos = 0; pos < small.stripeWidth(); ++pos)
                            ASSERT_EQ(small.place(s, pos),
                                      large.place(s, pos));
                    for (int disk = 0; disk < small.numDisks(); ++disk) {
                        for (int off = 0; off < units; ++off) {
                            const auto got = small.invert(disk, off);
                            const auto want = large.invert(disk, off);
                            ASSERT_TRUE(want.has_value());
                            if (got) {
                                ASSERT_EQ(got->stripe, want->stripe);
                                ASSERT_EQ(got->pos, want->pos);
                            } else {
                                ASSERT_GE(want->stripe, small.numStripes());
                            }
                        }
                    }
                }
            }
        }
    }
}

/** Layout misuse through a SimConfig is the caller's error. */
TEST(MakeLayout, RejectsBadConfig)
{
    auto rejects = [](auto edit) {
        SimConfig cfg;
        cfg.stripeUnits = 5;
        cfg.geometry = DiskGeometry::ibm0661Scaled(1);
        edit(cfg);
        EXPECT_THROW(ArraySimulation sim(cfg), ConfigError);
    };
    rejects([](SimConfig &c) { c.unitSectors = 0; });
    rejects([](SimConfig &c) { c.unitSectors = -8; });
    // Larger than the whole disk (949 cylinders x 48 sectors).
    rejects([](SimConfig &c) { c.unitSectors = 949 * 48 + 1; });
    // A disk too small for one unit, hence for one parity stripe.
    rejects([](SimConfig &c) {
        c.geometry.cylinders = 2;
        c.unitSectors = 97;
    });
    // Sparing needs a (G + 1)-wide design declustered over C > G + 1.
    rejects([](SimConfig &c) {
        c.distributedSparing = true;
        c.stripeUnits = c.numDisks;
    });
    rejects([](SimConfig &c) {
        c.distributedSparing = true;
        c.stripeUnits = c.numDisks - 1;
    });
    rejects([](SimConfig &c) {
        c.distributedSparing = true;
        c.numDisks = 22; // no (22, 11) design; selection offers G = 10
        c.stripeUnits = 10;
    });

    // The boundary cases still build: one unit per disk, G + 1 = C - 1.
    DiskGeometry tiny = DiskGeometry::ibm0661Scaled(1);
    tiny.cylinders = 2;
    EXPECT_EQ(makeLayout(21, 5, tiny, 96)->unitsPerDisk(), 1);
    EXPECT_GT(makeLayout(21, 5, tiny, 96)->numStripes(), 0);
    EXPECT_EQ(makeLayout(21, 19, tiny, 8, true)->stripeWidth(), 19);
}

TEST(Vulnerability, Raid5LosesEveryStripe)
{
    // With G = C every stripe holds units on every disk: any double
    // failure destroys every parity stripe.
    LeftSymmetricLayout lay(7, 35);
    const VulnerabilityReport report = analyzeDoubleFailure(lay);
    EXPECT_EQ(report.minStripesPerPair, report.totalStripes);
    EXPECT_DOUBLE_EQ(report.meanLossFraction, 1.0);
    EXPECT_EQ(stripesLostForPair(lay, 0, 3), report.totalStripes);
}

TEST(Vulnerability, DeclusteredLossMatchesLambda)
{
    // In whole tables, each disk pair shares exactly lambda stripes per
    // block design table copy, G copies per full table.
    BlockDesign d = appendixDesign(4); // lambda=3, G=4, b=105
    DeclusteredLayout lay(d, d.r() * d.k() * 2); // two full tables
    const VulnerabilityReport report = analyzeDoubleFailure(lay);
    EXPECT_EQ(report.minStripesPerPair, report.maxStripesPerPair);
    EXPECT_EQ(report.minStripesPerPair,
              static_cast<std::int64_t>(d.lambda()) * d.k() * 2);
    // Fraction lost = lambda*G*tables / (b*G*tables) = lambda/b.
    EXPECT_NEAR(report.meanLossFraction,
                static_cast<double>(d.lambda()) / d.b(), 1e-12);
}

TEST(Vulnerability, SmallerAlphaSmallerBlastRadius)
{
    const int units = 720;
    DeclusteredLayout g4(appendixDesign(4), units);
    DeclusteredLayout g10(appendixDesign(10), units);
    LeftSymmetricLayout raid5(21, units);
    const double a = analyzeDoubleFailure(g4).meanLossFraction;
    const double b = analyzeDoubleFailure(g10).meanLossFraction;
    const double c = analyzeDoubleFailure(raid5).meanLossFraction;
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
    EXPECT_DOUBLE_EQ(c, 1.0);
}

TEST(Vulnerability, PairQueryRejectsBadDisks)
{
    LeftSymmetricLayout lay(5, 10);
    EXPECT_ANY_THROW(stripesLostForPair(lay, 2, 2));
    EXPECT_ANY_THROW(stripesLostForPair(lay, 0, 5));
}

TEST(Audit, Raid5MaximalParallelismHolds)
{
    LeftSymmetricLayout lay(5, 50);
    const LayoutAudit audit = auditLayout(lay);
    EXPECT_TRUE(audit.maximalParallelism);
    EXPECT_DOUBLE_EQ(audit.parallelWindowFraction, 1.0);
}

TEST(Audit, DeclusteredParallelismGenerallyImperfect)
{
    // The paper (section 4.2) notes its declustered data mapping does
    // not meet the maximal-parallelism criterion.
    DeclusteredLayout lay(makeCompleteDesign(5, 4), 80);
    const LayoutAudit audit = auditLayout(lay);
    EXPECT_FALSE(audit.maximalParallelism);
    EXPECT_LT(audit.parallelWindowFraction, 1.0);
}

} // namespace
} // namespace declust
