#include "layout/declustered.hpp"

#include <algorithm>
#include <type_traits>

#include "designs/design.hpp"
#include "layout/layout.hpp"
#include "util/annotations.hpp"
#include "util/error.hpp"
#include "util/fastdiv.hpp"

namespace declust {

DeclusteredLayout::DeclusteredLayout(BlockDesign design, int unitsPerDisk,
                                     TableOrder order, int specialSlots)
    : design_(std::move(design)), unitsPerDisk_(unitsPerDisk)
{
    const int C = design_.v();
    const int G = design_.k();
    const int b = design_.b();
    const int r = design_.r();
    DECLUST_ASSERT(G < C, "declustered layout needs G < C (got G=", G,
                   ", C=", C, "); use LeftSymmetricLayout for G == C");
    DECLUST_ASSERT(unitsPerDisk_ >= 1, "empty disks");
    DECLUST_ASSERT(specialSlots >= 1 && specialSlots < G,
                   "specialSlots out of range");

    width_ = G;
    stripesPerTable_ = b * G;
    unitsPerTable_ = r * G;
    stripeDiv_ = FastDiv(static_cast<std::uint32_t>(stripesPerTable_));
    offsetDiv_ = FastDiv(static_cast<std::uint32_t>(unitsPerTable_));
    fullTables_ = unitsPerDisk_ / unitsPerTable_;
    // A disk holding less than one full table addresses only a prefix of
    // it, and only that prefix is built (section 4.3's table-size limit).
    const bool prefixOnly = fullTables_ == 0;
    invStride_ = prefixOnly ? unitsPerDisk_ : unitsPerTable_;
    // DupMajor (the paper's figure 4-2 order) is perfectly balanced only
    // in whole tables; whenever a trailing partial table exists the
    // staggered order keeps the truncated prefix balanced too.
    order_ = order != TableOrder::Auto ? order
             : (unitsPerDisk_ % unitsPerTable_ == 0
                    ? TableOrder::DupMajor
                    : TableOrder::Staggered);

    // If the disk cannot cover even one pass through the tuple list, a
    // lexicographic prefix decides the entire layout, and complete
    // designs enumerate tuples in an order that clusters low-numbered
    // disks. Permute the tuple order deterministically in that case so
    // any prefix samples the design uniformly. (When at least one full
    // pass fits, every tuple is covered and no shuffle is needed.)
    std::vector<int> tupleOrder(static_cast<size_t>(b));
    for (int t = 0; t < b; ++t)
        tupleOrder[static_cast<size_t>(t)] = t;
    const std::int64_t coveredStripes =
        static_cast<std::int64_t>(unitsPerDisk_) * C / G;
    if (coveredStripes < b) {
        DECLUST_ANALYZE_SUPPRESS(
            "seed-isolation: shuffle key is a pure function of the "
            "design shape (b, G), deliberately independent of the "
            "experiment seed so the layout is identical across trials");
        std::uint64_t state = 0x9e3779b97f4a7c15ull ^
                              (static_cast<std::uint64_t>(b) << 20) ^
                              static_cast<std::uint64_t>(G);
        auto nextRandom = [&state] {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            return state;
        };
        for (int t = b - 1; t > 0; --t) {
            const auto j = static_cast<int>(
                nextRandom() % static_cast<std::uint64_t>(t + 1));
            std::swap(tupleOrder[static_cast<size_t>(t)],
                      tupleOrder[static_cast<size_t>(j)]);
        }
    }

    // A prefix stripe's G units sit on distinct disks below unitsPerDisk_,
    // so at most coveredStripes of them fit.
    const int tableStripes =
        prefixOnly ? static_cast<int>(std::min<std::int64_t>(
                         coveredStripes, stripesPerTable_))
                   : stripesPerTable_;
    tableUnits_.assign(static_cast<size_t>(tableStripes) * G,
                       PhysicalUnit{});
    // Entries no built stripe claims read as the next table's first
    // stripe, which invert() treats as beyond the partial table.
    inverse_.assign(static_cast<size_t>(C) * invStride_,
                    InvEntry{stripesPerTable_, -1});
    std::vector<int> nextFree(static_cast<size_t>(C), 0);

    // Lay out the full block design table, or its prefix, in idx order,
    // each unit at the lowest free offset on its disk. Duplication `dup`
    // assigns parity to tuple element (G-1-dup); in DupMajor order
    // duplication 0 (parity on the last element) is written out whole
    // first, matching the paper's figure 4-2; in Staggered order stripe
    // idx uses tuple (idx mod b) with parity rotation
    // ((idx mod b) + idx/b) mod G so any prefix covers tuples and
    // rotations near-uniformly.
    //
    // Position k-1-j of the stripe (j < specialSlots) is a "special"
    // slot placed on tuple element k-1-((dup+j) mod k): each special
    // slot visits every element exactly once across the G duplications,
    // so parity (and, for sparing layouts, the spare) is balanced.
    //
    // The prefix walk stops before the first stripe with a unit at or
    // past unitsPerDisk_; the whole-table walk runs no such test.
    std::vector<int> slotOfElem(static_cast<size_t>(G));
    auto layOut = [&](auto prefix) {
        int idx = 0;
        for (; idx < tableStripes; ++idx) {
            const int t = idx % b;
            const Tuple &tup =
                design_.tuple(tupleOrder[static_cast<size_t>(t)]);
            if constexpr (decltype(prefix)::value) {
                // Tuple elements are distinct disks, so the stripe fits
                // iff each of its disks has a free offset left.
                if (std::any_of(tup.begin(), tup.end(), [&](int disk) {
                        return nextFree[static_cast<size_t>(disk)] >=
                               unitsPerDisk_;
                    }))
                    break;
            }
            const int dup = order_ == TableOrder::DupMajor
                                ? idx / b
                                : (t + idx / b) % G;
            std::fill(slotOfElem.begin(), slotOfElem.end(), -1);
            for (int j = 0; j < specialSlots; ++j)
                slotOfElem[static_cast<size_t>(G - 1 - (dup + j) % G)] =
                    G - 1 - j;
            int dataPos = 0;
            for (int e = 0; e < G; ++e) {
                const int disk = tup[static_cast<size_t>(e)];
                const int off = nextFree[static_cast<size_t>(disk)]++;
                DECLUST_ASSERT(off < unitsPerTable_,
                               "allocation overflow on disk ", disk);
                const int special = slotOfElem[static_cast<size_t>(e)];
                const int pos = special >= 0 ? special : dataPos++;
                tableUnits_[static_cast<size_t>(idx) * G + pos] =
                    PhysicalUnit{disk, off};
                inverse_[static_cast<size_t>(disk) * invStride_ + off] =
                    InvEntry{idx, pos};
            }
        }
        return idx;
    };

    if (prefixOnly) {
        // The prefix leaves every disk short of r * G, so prove the
        // design's balance directly: each disk is in exactly r tuples.
        std::vector<int> tuplesOn(static_cast<size_t>(C), 0);
        for (const Tuple &tup : design_.tuples())
            for (int disk : tup)
                ++tuplesOn[static_cast<size_t>(disk)];
        for (int d = 0; d < C; ++d) {
            DECLUST_ASSERT(tuplesOn[static_cast<size_t>(d)] == r, "disk ",
                           d, " is in ", tuplesOn[static_cast<size_t>(d)],
                           " of the design's tuples, not r=", r);
        }
        // Every stripe the walk laid out fits and the next one does not,
        // so the prefix is exactly the truncated partial table. The
        // forward table keeps its coveredStripes-sized allocation, a few
        // percent over the prefix: reallocating it to fit would cost
        // about a tenth of the build.
        partialStripes_ = layOut(std::true_type{});
        tableUnits_.resize(static_cast<size_t>(partialStripes_) * G);
    } else {
        layOut(std::false_type{});
        // Balance property of the design: every disk ends exactly full.
        for (int d = 0; d < C; ++d) {
            DECLUST_ASSERT(nextFree[static_cast<size_t>(d)] ==
                               unitsPerTable_,
                           "disk ", d, " allocated ",
                           nextFree[static_cast<size_t>(d)], " of ",
                           unitsPerTable_, " table units");
        }

        // The trailing partial table keeps the longest prefix of stripes
        // whose every unit falls below the remainder; allocation is
        // deterministic, so the full-table offsets are reusable.
        const int remainder = unitsPerDisk_ % unitsPerTable_;
        partialStripes_ = 0;
        for (int idx = 0; idx < stripesPerTable_; ++idx) {
            bool fits = true;
            for (int pos = 0; pos < G; ++pos) {
                if (tableUnits_[static_cast<size_t>(idx) * G + pos]
                        .offset >= remainder) {
                    fits = false;
                    break;
                }
            }
            if (!fits)
                break;
            ++partialStripes_;
        }
    }

    numStripes_ = fullTables_ * stripesPerTable_ + partialStripes_;
    DECLUST_ASSERT(numStripes_ > 0,
                   "disk too small for even one parity stripe "
                   "(unitsPerDisk=", unitsPerDisk_, ")");
}

PhysicalUnit
DeclusteredLayout::place(std::int64_t stripe, int pos) const
{
    // Per-access path: one table lookup plus two multiply-shift
    // divisions; bounds are the caller's contract (checked in debug).
    DECLUST_DEBUG_ASSERT(stripe >= 0 && stripe < numStripes_, "stripe ",
                         stripe, " out of range [0,", numStripes_, ")");
    DECLUST_DEBUG_ASSERT(pos >= 0 && pos < width_, "pos out of range");
    const std::int64_t table = stripeDiv_.quot64(stripe);
    const auto idx = static_cast<size_t>(stripeDiv_.rem64(stripe));
    PhysicalUnit unit = tableUnits_[idx * static_cast<size_t>(width_) +
                                    static_cast<size_t>(pos)];
    unit.offset += static_cast<int>(table * unitsPerTable_);
    return unit;
}

std::optional<StripeUnit>
DeclusteredLayout::invert(int disk, int offset) const
{
    DECLUST_DEBUG_ASSERT(disk >= 0 && disk < design_.v(),
                         "disk out of range");
    DECLUST_DEBUG_ASSERT(offset >= 0 && offset < unitsPerDisk_,
                         "offset out of range");
    const auto off = static_cast<std::uint32_t>(offset);
    const std::int64_t table = offsetDiv_.quot(off);
    const std::uint32_t tOff = offsetDiv_.rem(off);
    const InvEntry &e =
        inverse_[static_cast<size_t>(disk) * invStride_ + tOff];
    if (table == fullTables_ && e.stripeIdx >= partialStripes_)
        return std::nullopt; // beyond the truncated partial table
    return StripeUnit{table * stripesPerTable_ + e.stripeIdx, e.pos};
}

std::int64_t
DeclusteredLayout::mappingTableBytes() const
{
    return static_cast<std::int64_t>(tableUnits_.capacity() *
                                     sizeof(PhysicalUnit)) +
           static_cast<std::int64_t>(inverse_.capacity() *
                                     sizeof(InvEntry));
}

std::int64_t
DeclusteredLayout::unmappedUnits() const
{
    const std::int64_t physical =
        static_cast<std::int64_t>(design_.v()) * unitsPerDisk_;
    return physical - numStripes_ * design_.k();
}

} // namespace declust
