/**
 * @file
 * Block-design-based declustered parity layout (paper section 4.2).
 *
 * Objects of the design are disks (v = C) and tuples are parity stripes
 * (k = G). One *block design table* lays out the b tuples in order,
 * assigning stripe unit j of stripe i to the lowest free offset on the
 * disk named by the j-th element of tuple (i mod b). The *full block
 * design table* repeats this G times, assigning parity to a different
 * tuple element in each duplication so parity is spread evenly
 * (criterion 3). The full table is then tiled down the disks; a trailing
 * partial table keeps the longest prefix of stripes whose every unit
 * fits in the tail and leaves the rest of the tail unmapped (real disks
 * are not a multiple of the table size; cf. section 4.3's discussion of
 * table-size limits).
 *
 * When the disk holds less than one full table, as with a large complete
 * design, only that addressable prefix is built: the forward table holds
 * just the prefix's stripes and the inverse table one entry per disk
 * offset, so the mapping costs at most 2 x 8 B x C x unitsPerDisk however
 * large b is.
 */
#pragma once

#include <vector>

#include "designs/design.hpp"
#include "layout/layout.hpp"
#include "util/fastdiv.hpp"

namespace declust {

/**
 * Ordering of the stripes within one full block design table.
 *
 * DupMajor is the paper's figure 4-2 layout: the block design table is
 * written out whole, G times, with parity moving one element between
 * copies. If the disk cannot hold even one full table (huge complete
 * designs, section 4.3), the truncated prefix covers too few parity
 * rotations and criterion 3 collapses; Staggered cycles through all b
 * tuples repeatedly, advancing the parity element by the tuple index, so
 * any prefix covers both tuples and parity rotations near-uniformly.
 * Auto picks DupMajor when the disk is an exact multiple of the full
 * table (no partial table), Staggered otherwise.
 */
enum class TableOrder { Auto, DupMajor, Staggered };

/** Declustered parity layout derived from a block design. */
class DeclusteredLayout : public Layout
{
  public:
    /**
     * @param design Verified block design with v = C and k = G < C.
     * @param unitsPerDisk Stripe units available per disk.
     * @param order Stripe ordering within the full table (see TableOrder).
     * @param specialSlots Number of trailing positions that rotate
     *        across tuple elements between table duplications. 1 (the
     *        paper) rotates only the parity position k-1; 2 also
     *        rotates position k-2, used by the distributed-sparing
     *        layout so both its parity and its spare stay balanced.
     */
    DeclusteredLayout(BlockDesign design, int unitsPerDisk,
                      TableOrder order = TableOrder::Auto,
                      int specialSlots = 1);

    /** The ordering actually in use (Auto resolved). */
    TableOrder tableOrder() const { return order_; }

    int numDisks() const override { return design_.v(); }
    int stripeWidth() const override { return design_.k(); }
    int unitsPerDisk() const override { return unitsPerDisk_; }
    std::int64_t numStripes() const override { return numStripes_; }

    PhysicalUnit place(std::int64_t stripe, int pos) const override;
    std::optional<StripeUnit> invert(int disk, int offset) const override;

    std::int64_t unmappedUnits() const override;

    /** Bytes allocated to the forward and inverse tables: both whole
     * tables, or, on a disk smaller than one table, room for the
     * addressable prefix (at most C x unitsPerDisk units) and one
     * inverse entry per disk offset. */
    std::int64_t mappingTableBytes() const override;

    /** The underlying block design. */
    const BlockDesign &design() const { return design_; }

    /** Parity stripes per full block design table (b * G). */
    int stripesPerFullTable() const { return stripesPerTable_; }

    /** Stripe units per disk per full block design table (r * G). */
    int unitsPerDiskPerFullTable() const { return unitsPerTable_; }

  private:
    BlockDesign design_;
    int unitsPerDisk_;
    TableOrder order_;

    int width_;            // G, denormalized out of design_ for the hot path
    int stripesPerTable_;  // b * G
    int unitsPerTable_;    // r * G (per disk)
    FastDiv stripeDiv_;    // divide stripe index by stripesPerTable_
    FastDiv offsetDiv_;    // divide disk offset by unitsPerTable_
    std::int64_t fullTables_;
    int partialStripes_;   // usable stripes in the trailing partial table
    int invStride_;        // inverse_ entries per disk
    std::int64_t numStripes_;

    /** tableUnits_[idx * G + pos] = location within one full table; only
     * the first partialStripes_ stripes when fullTables_ == 0. */
    std::vector<PhysicalUnit> tableUnits_;

    /** inverse_[disk * invStride_ + off] = (stripe idx, pos); invStride_
     * is unitsPerTable_, or unitsPerDisk_ when fullTables_ == 0. Offsets
     * no built stripe claims hold stripe idx stripesPerTable_. */
    struct InvEntry
    {
        int stripeIdx;
        int pos;
    };
    std::vector<InvEntry> inverse_;
};

} // namespace declust
