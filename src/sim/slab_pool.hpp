/**
 * @file
 * Fixed-chunk slab allocator for the array's pooled objects.
 *
 * The controller's in-flight operations (IoOp) and deferred issues come
 * from here instead of malloc. Chunks are carved out of large slabs and
 * recycled through a free list, so a simulation that churns millions of
 * operations performs a handful of slab allocations total and every
 * chunk reuse is two pointer writes.
 *
 * A pool is intentionally NOT thread-safe: each pool belongs to one
 * controller, and only the worker advancing that array touches it.
 *
 * Validation builds (-DDECLUST_VALIDATE=ON, see util/validate.hpp) add
 * lifetime checking that ASan cannot provide for pooled memory: every
 * chunk carries a shadow {live, generation} record, freed chunks are
 * poisoned (beyond the free-list link), and allocate/deallocate panic
 * on double-free, foreign-pointer free, and poison damage — i.e. a
 * write through a stale pointer into freed pool memory. Generations
 * let owning pools stamp handles and detect a chunk that was freed and
 * reallocated underneath them.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/annotations.hpp"
#include "util/error.hpp"
#include "util/validate.hpp"

namespace declust {

/** Free-list pool of fixed-size chunks backed by growable slabs. */
class SlabPool
{
  public:
    /**
     * @param chunkSize Bytes per chunk; at least sizeof(void*) and kept
     *        max_align_t-aligned by the slab layout.
     * @param chunksPerSlab Chunks carved from each backing allocation.
     */
    explicit SlabPool(std::size_t chunkSize,
                      std::size_t chunksPerSlab = 256)
        : chunkSize_(roundUp(chunkSize)), chunksPerSlab_(chunksPerSlab)
    {
        DECLUST_ASSERT(chunksPerSlab_ > 0, "empty slab");
    }

    SlabPool(const SlabPool &) = delete;
    SlabPool &operator=(const SlabPool &) = delete;

    /** Pop a chunk from the free list, growing by one slab if dry. */
    DECLUST_HOT_PATH
    void *
    allocate()
    {
        if (!free_)
            grow();
        FreeNode *node = free_;
        free_ = node->next;
        ++live_;
#if DECLUST_VALIDATE
        ChunkState &state = stateOf(node);
        DECLUST_VALIDATE_CHECK(!state.live,
                               "pool handed out a live chunk (free-list "
                               "corruption) at ", node);
        checkPoisonIntact(node);
        state.live = true;
#endif
        return node;
    }

    /** Return @p p (obtained from allocate()) to the free list. */
    DECLUST_HOT_PATH
    void
    deallocate(void *p)
    {
        DECLUST_DEBUG_ASSERT(p != nullptr, "freeing null chunk");
#if DECLUST_VALIDATE
        ChunkState &state = stateOf(p);
        DECLUST_VALIDATE_CHECK(state.live, "double free of pool chunk ", p,
                               " (generation ", state.generation, ")");
        state.live = false;
        ++state.generation;
        poison(p);
#endif
        auto *node = static_cast<FreeNode *>(p);
        node->next = free_;
        free_ = node;
        --live_;
    }

    /** Usable bytes per chunk (the rounded-up size). */
    std::size_t chunkSize() const { return chunkSize_; }

    /** Chunks currently handed out. */
    std::size_t liveChunks() const { return live_; }

    /** Backing slab allocations made so far. */
    std::size_t slabCount() const { return slabs_.size(); }

#if DECLUST_VALIDATE
    /** True if @p p is a chunk of this pool currently handed out. */
    bool
    ownsLive(const void *p) const
    {
        const std::size_t index = chunkIndex(p);
        return index != kNotAChunk && states_[index].live;
    }

    /**
     * Generation tag of chunk @p p: incremented on every free, so a
     * handle stamped at allocate time detects free-and-reuse. @p p must
     * be a chunk of this pool.
     */
    std::uint32_t
    generation(const void *p) const
    {
        const std::size_t index = chunkIndex(p);
        DECLUST_VALIDATE_CHECK(index != kNotAChunk,
                               "generation() of foreign pointer ", p);
        return states_[index].generation;
    }

    /**
     * Check a generation-tagged handle: @p p must be a live chunk of
     * this pool whose generation still equals @p expected. @p what
     * names the handle in the diagnostic.
     */
    void
    checkHandle(const void *p, std::uint32_t expected,
                const char *what) const
    {
        const std::size_t index = chunkIndex(p);
        DECLUST_VALIDATE_CHECK(index != kNotAChunk, what,
                               ": handle does not point into the pool (",
                               p, ")");
        const ChunkState &state = states_[index];
        DECLUST_VALIDATE_CHECK(state.live, what,
                               ": handle to a released chunk ", p);
        DECLUST_VALIDATE_CHECK(
            state.generation == expected, what,
            ": stale handle (chunk freed and reused): generation ",
            state.generation, " != tagged ", expected);
    }
#endif

  private:
    struct FreeNode
    {
        FreeNode *next;
    };

    static std::size_t
    roundUp(std::size_t n)
    {
        const std::size_t a = alignof(std::max_align_t);
        const std::size_t floor = n < sizeof(FreeNode) ? sizeof(FreeNode)
                                                       : n;
        return (floor + a - 1) / a * a;
    }

    void
    grow()
    {
        // Warm-up growth path: the pool doubles down to zero steady-state
        // allocations precisely because this runs O(1) times per run.
        DECLUST_ANALYZE_SUPPRESS(
            "hot-path-growth,hot-path-alloc: slab warm-up");
        slabs_.push_back(std::make_unique<std::byte[]>(chunkSize_ *
                                                       chunksPerSlab_));
        std::byte *base = slabs_.back().get();
#if DECLUST_VALIDATE
        DECLUST_ANALYZE_SUPPRESS(
            "hot-path-growth: shadow state mirrors slabs");
        states_.resize(states_.size() + chunksPerSlab_);
#endif
        // Thread the new slab onto the free list back-to-front so
        // chunks are handed out in address order.
        for (std::size_t i = chunksPerSlab_; i-- > 0;) {
            auto *node =
                reinterpret_cast<FreeNode *>(base + i * chunkSize_);
#if DECLUST_VALIDATE
            poison(node);
#endif
            node->next = free_;
            free_ = node;
        }
    }

#if DECLUST_VALIDATE
    /** Sentinel for "not a chunk of this pool". */
    static constexpr std::size_t kNotAChunk =
        static_cast<std::size_t>(-1);

    /** Shadow lifetime record, one per chunk ever carved. */
    struct ChunkState
    {
        std::uint32_t generation = 0;
        bool live = false;
    };

    /** Global chunk index of @p p, or kNotAChunk if foreign/misaligned. */
    std::size_t
    chunkIndex(const void *p) const
    {
        const auto *b = static_cast<const std::byte *>(p);
        const std::size_t slabBytes = chunkSize_ * chunksPerSlab_;
        for (std::size_t s = 0; s < slabs_.size(); ++s) {
            const std::byte *base = slabs_[s].get();
            if (b < base || b >= base + slabBytes)
                continue;
            const auto off = static_cast<std::size_t>(b - base);
            if (off % chunkSize_ != 0)
                return kNotAChunk; // interior pointer
            return s * chunksPerSlab_ + off / chunkSize_;
        }
        return kNotAChunk;
    }

    ChunkState &
    stateOf(void *p)
    {
        const std::size_t index = chunkIndex(p);
        DECLUST_VALIDATE_CHECK(index != kNotAChunk,
                               "pointer ", p, " is not a chunk of this "
                               "pool (foreign free or misaligned)");
        return states_[index];
    }

    /**
     * Fill a freed chunk with the poison pattern. The first
     * sizeof(FreeNode) bytes are spared — the free list lives there —
     * so the detectable window is [sizeof(FreeNode), chunkSize_).
     */
    void
    poison(void *p)
    {
        auto *b = static_cast<std::byte *>(p);
        std::memset(b + sizeof(FreeNode),
                    static_cast<int>(kPoisonByte),
                    chunkSize_ - sizeof(FreeNode));
    }

    /** Panic if a freed chunk's poison was overwritten (use-after-free
     * write through a stale pointer). */
    void
    checkPoisonIntact(const void *p) const
    {
        const auto *b = static_cast<const std::byte *>(p);
        for (std::size_t i = sizeof(FreeNode); i < chunkSize_; ++i) {
            DECLUST_VALIDATE_CHECK(
                b[i] == static_cast<std::byte>(kPoisonByte),
                "freed pool chunk ", p, " was written at offset ", i,
                " while on the free list (use-after-release)");
        }
    }

    std::vector<ChunkState> states_;
#endif

    std::size_t chunkSize_;
    std::size_t chunksPerSlab_;
    std::vector<std::unique_ptr<std::byte[]>> slabs_;
    FreeNode *free_ = nullptr;
    std::size_t live_ = 0;
};

} // namespace declust
