/**
 * @file
 * Small-buffer event callback for the simulation core.
 *
 * std::function's inline buffer (16 bytes in common libraries) is too
 * small for the simulator's closures — nearly every scheduled event
 * captures an object pointer plus a continuation, so the old event queue
 * paid one malloc/free per event. EventCallback stores up to
 * kInlineCapacity bytes in place, which covers every callback the
 * simulator schedules; a larger closure spills to the heap and counts
 * as callbacks_spill_heap in the perf block, where a spilling hot path
 * shows up (and the allocation-guard tests fail) instead of hiding in
 * a pool.
 *
 * There is deliberately no per-thread spill pool: an array in a cluster
 * can be advanced by more than one worker thread over a run, and a
 * chunk freed into another thread's pool would outlive the thread that
 * owns its memory.
 *
 * A closure that is trivially copyable (every hot one: raw pointer and
 * tick captures) carries no move or destroy op: moving it copies the
 * inline buffer and destroying it is a no-op, so relocating an event
 * costs no indirect call.
 *
 * Move-only (events run once, continuations own their captures) and
 * thread-confined like the EventQueue that stores it.
 */
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "stats/perf_counters.hpp"

namespace declust {

/** Move-only callable with a large inline buffer and heap spill. */
class EventCallback
{
  public:
    /** Inline capture capacity in bytes. */
    static constexpr std::size_t kInlineCapacity = 48;

    EventCallback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventCallback(F &&f) // NOLINT: implicit like std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineCapacity &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            DECLUST_PERF_INC(CallbackInline);
            ::new (static_cast<void *>(store_.inline_)) Fn(std::forward<F>(f));
            ops_ = inlineOps<Fn>();
        } else {
            DECLUST_PERF_INC(CallbackSpillHeap);
            store_.heap_ = new Fn(std::forward<F>(f));
            ops_ = heapOps<Fn>();
        }
    }

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    /** True if a callable is held. */
    explicit operator bool() const { return ops_ != nullptr; }

    /** Invoke the held callable. */
    void
    operator()()
    {
        ops_->invoke(*this);
    }

  private:
    /** move and destroy are null for a trivially copyable inline
     * closure: its bytes are the whole object. */
    struct Ops
    {
        void (*invoke)(EventCallback &);
        void (*move)(EventCallback &dst, EventCallback &src) noexcept;
        void (*destroy)(EventCallback &) noexcept;
    };

    template <typename Fn>
    static Fn *
    inlinePtr(EventCallback &cb)
    {
        return std::launder(reinterpret_cast<Fn *>(cb.store_.inline_));
    }

    template <typename Fn>
    static const Ops *
    inlineOps()
    {
        constexpr bool plain = std::is_trivially_copyable_v<Fn>;
        static constexpr Ops ops = {
            [](EventCallback &cb) { (*inlinePtr<Fn>(cb))(); },
            plain ? nullptr
                  : +[](EventCallback &dst, EventCallback &src) noexcept {
                        ::new (static_cast<void *>(dst.store_.inline_))
                            Fn(std::move(*inlinePtr<Fn>(src)));
                        inlinePtr<Fn>(src)->~Fn();
                    },
            plain ? nullptr : +[](EventCallback &cb) noexcept {
                inlinePtr<Fn>(cb)->~Fn();
            },
        };
        return &ops;
    }

    template <typename Fn>
    static const Ops *
    heapOps()
    {
        static constexpr Ops ops = {
            [](EventCallback &cb) {
                (*static_cast<Fn *>(cb.store_.heap_))();
            },
            [](EventCallback &dst, EventCallback &src) noexcept {
                dst.store_.heap_ = src.store_.heap_;
                src.store_.heap_ = nullptr;
            },
            [](EventCallback &cb) noexcept {
                delete static_cast<Fn *>(cb.store_.heap_);
            },
        };
        return &ops;
    }

    void
    moveFrom(EventCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            if (ops_->move)
                ops_->move(*this, other);
            else
                std::memcpy(store_.inline_, other.store_.inline_,
                            kInlineCapacity);
            other.ops_ = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(*this);
            ops_ = nullptr;
        }
    }

    union Storage
    {
        std::byte inline_[kInlineCapacity];
        void *heap_;
    };

    alignas(std::max_align_t) Storage store_;
    const Ops *ops_ = nullptr;
};

} // namespace declust
