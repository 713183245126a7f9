#include "disk/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/annotations.hpp"
#include "util/error.hpp"

namespace declust {

namespace {

/**
 * FCFS over a power-of-two ring buffer. A deque would allocate a map
 * block on first use and re-touch the allocator whenever its segment
 * list shifts; the ring pays one geometric grow per high-water mark and
 * is allocation-free forever after (tests/test_alloc_guard.cpp holds it
 * to that).
 */
class FcfsScheduler : public Scheduler
{
  public:
    FcfsScheduler() : ring_(kInitialCapacity) {}

    void
    push(const SchedEntry &entry) override
    {
        if (count_ == ring_.size())
            grow();
        ring_[(head_ + count_) & (ring_.size() - 1)] = entry;
        ++count_;
    }

    SchedEntry
    pop(int, SeekDirection) override
    {
        DECLUST_ASSERT(count_ > 0, "pop on empty queue");
        SchedEntry e = ring_[head_];
        head_ = (head_ + 1) & (ring_.size() - 1);
        --count_;
        return e;
    }

    bool empty() const override { return count_ == 0; }
    std::size_t size() const override { return count_; }

  private:
    static constexpr std::size_t kInitialCapacity = 16;

    void
    grow()
    {
        // Re-linearize into a fresh ring so the occupied span is
        // contiguous from index 0; doubling keeps the mask trick valid.
        DECLUST_ANALYZE_SUPPRESS(
            "hot-path-growth: grow only fires at a new queue-depth high-water "
            "mark, never in steady state");
        std::vector<SchedEntry> bigger(ring_.size() * 2);
        for (std::size_t i = 0; i < count_; ++i)
            bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
        ring_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<SchedEntry> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

class VrScheduler : public Scheduler
{
  public:
    VrScheduler(double r, int cylinders) : r_(r), cylinders_(cylinders)
    {
        DECLUST_ASSERT(r_ >= 0.0 && r_ <= 1.0, "V(R) needs R in [0,1]");
        DECLUST_ASSERT(cylinders_ > 0, "V(R) needs cylinder count");
    }

    void
    push(const SchedEntry &entry) override
    {
        DECLUST_ANALYZE_SUPPRESS(
            "hot-path-growth: capacity is retained across pops, so steady "
            "state re-uses it without allocating");
        queue_.push_back(entry);
    }

    SchedEntry
    pop(int headCylinder, SeekDirection direction) override
    {
        DECLUST_ASSERT(!queue_.empty(), "pop on empty queue");
        const double penalty = r_ * cylinders_;
        std::size_t best = 0;
        double bestCost = cost(queue_[0], headCylinder, direction, penalty);
        for (std::size_t i = 1; i < queue_.size(); ++i) {
            const double c =
                cost(queue_[i], headCylinder, direction, penalty);
            // Ties go to the older request to avoid starvation.
            if (c < bestCost ||
                (c == bestCost &&
                 queue_[i].enqueued < queue_[best].enqueued)) {
                bestCost = c;
                best = i;
            }
        }
        SchedEntry e = queue_[best];
        queue_.erase(queue_.begin() +
                     static_cast<std::ptrdiff_t>(best));
        return e;
    }

    bool empty() const override { return queue_.empty(); }
    std::size_t size() const override { return queue_.size(); }

  private:
    // Forced inline: pop() evaluates it once per queued entry.
    [[gnu::always_inline]] static inline double
    cost(const SchedEntry &entry, int head, SeekDirection direction,
         double penalty)
    {
        const int delta = entry.cylinder - head;
        double c = std::abs(delta);
        const bool reversal =
            (direction == SeekDirection::Up && delta < 0) ||
            (direction == SeekDirection::Down && delta > 0);
        if (reversal)
            c += penalty;
        return c;
    }

    double r_;
    int cylinders_;
    std::vector<SchedEntry> queue_;
};

} // namespace

std::unique_ptr<Scheduler>
makeFcfsScheduler()
{
    DECLUST_ANALYZE_SUPPRESS(
        "hot-path-alloc: factory runs once at disk set-up");
    return std::make_unique<FcfsScheduler>();
}

std::unique_ptr<Scheduler>
makeVrScheduler(double r, int cylinders)
{
    DECLUST_ANALYZE_SUPPRESS(
        "hot-path-alloc: factory runs once at disk set-up");
    return std::make_unique<VrScheduler>(r, cylinders);
}

std::unique_ptr<Scheduler>
makeSstfScheduler(int cylinders)
{
    return makeVrScheduler(0.0, cylinders);
}

std::unique_ptr<Scheduler>
makeScanScheduler(int cylinders)
{
    return makeVrScheduler(1.0, cylinders);
}

std::unique_ptr<Scheduler>
makeCvscanScheduler(int cylinders)
{
    return makeVrScheduler(0.2, cylinders);
}

std::unique_ptr<Scheduler>
makeScheduler(const std::string &name, int cylinders)
{
    if (name == "fcfs")
        return makeFcfsScheduler();
    if (name == "sstf")
        return makeSstfScheduler(cylinders);
    if (name == "scan")
        return makeScanScheduler(cylinders);
    if (name == "cvscan")
        return makeCvscanScheduler(cylinders);
    DECLUST_FATAL("unknown scheduler '", name,
                  "' (want fcfs|sstf|scan|cvscan)");
}

} // namespace declust
