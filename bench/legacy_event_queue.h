/**
 * @file
 * The seed discrete-event kernel, frozen verbatim as a reference oracle:
 * std::priority_queue of Entry records holding std::function callbacks,
 * with the full-Entry copy out of top() in step(). bench_kernel_hotpath
 * measures the calendar EventQueue against it, and the kernel tests pin
 * same-order execution under randomized schedules. Simulator code must
 * use EventQueue (common/event_queue.h).
 */

#ifndef SKYBYTE_BENCH_LEGACY_EVENT_QUEUE_H
#define SKYBYTE_BENCH_LEGACY_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/types.h"

namespace skybyte {

/** Callback executed when an event fires (type-erased convenience). */
using EventFn = std::function<void()>;

class LegacyEventQueue
{
  public:
    LegacyEventQueue() = default;

    LegacyEventQueue(const LegacyEventQueue &) = delete;
    LegacyEventQueue &operator=(const LegacyEventQueue &) = delete;

    Tick now() const { return now_; }
    std::size_t pending() const { return heap_.size(); }

    void
    schedule(Tick when, EventFn fn)
    {
        if (when < now_)
            when = now_;
        heap_.push(Entry{when, seq_++, std::move(fn)});
    }

    void
    scheduleAfter(Tick delay, EventFn fn)
    {
        schedule(now_ + delay, std::move(fn));
    }

    bool
    step()
    {
        if (heap_.empty())
            return false;
        // Seed behaviour: copies the Entry (and its std::function) out
        // before popping so the callback may schedule.
        Entry e = heap_.top();
        heap_.pop();
        now_ = e.when;
        e.fn();
        return true;
    }

    void
    run(Tick limit = kTickMax)
    {
        while (!heap_.empty() && heap_.top().when <= limit) {
            if (!step())
                break;
        }
        if (heap_.empty() && limit != kTickMax && now_ < limit)
            now_ = limit;
    }

    void
    reset()
    {
        heap_ = {};
        now_ = 0;
        seq_ = 0;
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        EventFn fn;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
};

} // namespace skybyte

#endif // SKYBYTE_BENCH_LEGACY_EVENT_QUEUE_H
