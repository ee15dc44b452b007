/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives the whole system: cores, DRAM channels, the
 * CXL link, flash channels, and background jobs (log compaction, GC, page
 * migration) all schedule closures here. Events at the same tick execute
 * in FIFO order of scheduling, which keeps runs deterministic.
 *
 * Hot-path design (every simulated instruction crosses this code):
 *
 *  - Two-level calendar queue. Near-future events (within kWindowTicks
 *    of the bucket cursor) live in per-tick FIFO buckets; an occupancy
 *    bitmap lets the cursor skip empty ticks a word at a time. Far
 *    events overflow into a binary min-heap ordered by (when, seq) and
 *    migrate into the bucket window as the cursor advances; because the
 *    heap pops in (when, seq) order and buckets append at the tail,
 *    same-tick FIFO order is preserved across the two levels.
 *  - Slab-allocated event records. Each pending event is one
 *    Slab<EventRecord> record (common/slab.h, the allocator the request
 *    path's records use too), so the steady state does zero allocator
 *    traffic per event.
 *  - Small-buffer-optimized callbacks. The record holds an
 *    InlineFunction (common/inline_function.h) whose buffer covers
 *    every steady-state lambda the simulator schedules, including a
 *    captured move-only MemCallback plus its response payload; the
 *    callable is emplaced once and never copied or moved afterwards.
 *
 * Regression note (seed kernel): the seed's std::priority_queue kernel
 * copied the whole Entry — including its std::function — out of top()
 * before pop() on every step(), adding an allocation + copy per event.
 * The calendar kernel executes the callback in place, so the copy is
 * structurally impossible now. bench/legacy_event_queue.h preserves the
 * seed implementation verbatim so bench_kernel_hotpath can measure the
 * before/after events/sec ratio.
 */

#ifndef SKYBYTE_COMMON_EVENT_QUEUE_H
#define SKYBYTE_COMMON_EVENT_QUEUE_H

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/slab.h"
#include "common/types.h"

namespace skybyte {

namespace detail {

/** One pending event: intrusive FIFO link + callback. */
struct EventRecord
{
    /**
     * User-provided so that Slab::alloc()'s value-initialization does
     * not zero the 80-byte callback buffer on every event.
     */
    EventRecord() {}

    Tick when = 0;
    std::uint64_t seq = 0;       ///< schedule order, tie-break across levels
    EventRecord *next = nullptr; ///< same-tick FIFO chain
    /**
     * Sized so that the request path's largest steady-state completion
     * lambda — a move-only MemCallback (48 B) plus a MemResponse
     * payload (32 B) — is stored inline. Oversized callables
     * (page-payload captures on the rare page-granular paths) fall back
     * to one heap cell.
     */
    InlineFunction<void(), 80> cb;
};

} // namespace detail

/**
 * Time-ordered event queue with deterministic same-tick ordering.
 */
class EventQueue
{
  public:
    /** Default calendar window: buckets covering [base_, base_+W). */
    static constexpr std::size_t kWindowTicks = 8192; // 512 ns
    /** Default EventRecords carved per slab chunk. */
    static constexpr std::size_t kChunkRecords = 512;

    /**
     * @param window_ticks near-future window size (power of two >= 64);
     *                     the sweet spot depends on the event-stride
     *                     distribution, hence the SimConfig knob
     * @param chunk_records EventRecords carved per slab chunk
     */
    explicit EventQueue(std::size_t window_ticks = kWindowTicks,
                        std::size_t chunk_records = kChunkRecords)
        : head_(window_ticks, nullptr), tail_(window_ticks, nullptr),
          bitmap_(window_ticks / 64, 0), slab_(chunk_records),
          window_(window_ticks), mask_(window_ticks - 1),
          words_(window_ticks / 64)
    {
        if (window_ticks < 64 || (window_ticks & mask_) != 0) {
            throw std::invalid_argument(
                "calendar window must be a power of two >= 64");
        }
        if (chunk_records == 0)
            throw std::invalid_argument("slab chunk size must be > 0");
    }

    /** Release every pending record, destroying its callback. */
    ~EventQueue()
    {
        // Read next before each release: the slab's free-list link
        // overwrites the record's storage.
        for (detail::EventRecord *r : head_) {
            while (r != nullptr) {
                detail::EventRecord *next = r->next;
                slab_.release(r);
                r = next;
            }
        }
        for (detail::EventRecord *r : overflow_)
            slab_.release(r);
    }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of pending events. */
    std::size_t pending() const { return size_; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     * Scheduling in the past clamps to now().
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        if (when < now_)
            when = now_;
        detail::EventRecord *r = slab_.alloc();
        r->when = when;
        r->seq = seq_++;
        r->cb.emplace(std::forward<F>(fn));
        if (when < base_ + window_)
            bucketAppend(r);
        else
            overflowPush(r);
        ++size_;
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delay, F &&fn)
    {
        schedule(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Execute the next event, advancing time to it.
     * @retval false if the queue was empty.
     */
    bool
    step()
    {
        detail::EventRecord *r = popNextAtMost(kTickMax);
        if (r == nullptr)
            return false;
        execute(r);
        return true;
    }

    /**
     * Run until the queue drains or @p limit ticks elapse. With a
     * finite limit, now() afterwards is exactly @p limit even when
     * events remain pending past it (the seed kernel only advanced the
     * clock when the queue drained, which made back-to-back bounded
     * runs start from inconsistent clocks).
     *
     * The bounded pop fuses the peek-then-pop pair the seed loop did —
     * one calendar scan per event instead of two.
     */
    void
    run(Tick limit = kTickMax)
    {
        while (detail::EventRecord *r = popNextAtMost(limit))
            execute(r);
        if (limit != kTickMax && now_ < limit)
            now_ = limit;
    }

  private:
    /** Min-heap order over far-future events: (when, seq) ascending. */
    struct OverflowLater
    {
        bool
        operator()(const detail::EventRecord *a,
                   const detail::EventRecord *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            return a->seq > b->seq;
        }
    };

    void
    bucketAppend(detail::EventRecord *r)
    {
        const std::size_t idx = r->when & mask_;
        if (head_[idx] == nullptr) {
            head_[idx] = tail_[idx] = r;
            bitmap_[idx >> 6] |= 1ull << (idx & 63);
        } else {
            tail_[idx]->next = r;
            tail_[idx] = r;
        }
        ++bucketed_;
    }

    void
    overflowPush(detail::EventRecord *r)
    {
        overflow_.push_back(r);
        std::push_heap(overflow_.begin(), overflow_.end(),
                       OverflowLater{});
    }

    /**
     * Offset from the cursor of the first occupied bucket, scanning the
     * occupancy bitmap circularly; window_ when all empty.
     */
    std::size_t
    scanBitmap() const
    {
        const std::size_t start = base_ & mask_;
        const std::size_t word = start >> 6;
        const std::size_t bit = start & 63;
        const std::uint64_t first = bitmap_[word] >> bit;
        if (first != 0)
            return static_cast<std::size_t>(std::countr_zero(first));
        std::size_t off = 64 - bit;
        for (std::size_t i = 1; i < words_; ++i) {
            const std::uint64_t w = bitmap_[(word + i) & (words_ - 1)];
            if (w != 0)
                return off
                       + static_cast<std::size_t>(std::countr_zero(w));
            off += 64;
        }
        // Wrap: low bits of the starting word sit window-bit..
        // window-1 ticks ahead of the cursor.
        const std::uint64_t low =
            bit == 0 ? 0 : (bitmap_[word] & ((1ull << bit) - 1));
        if (low != 0)
            return off + static_cast<std::size_t>(std::countr_zero(low));
        return window_;
    }

    /** Pull overflow events entering the window [base_, @p end). */
    void
    migrateUpTo(Tick end)
    {
        while (!overflow_.empty() && overflow_.front()->when < end) {
            std::pop_heap(overflow_.begin(), overflow_.end(),
                          OverflowLater{});
            detail::EventRecord *r = overflow_.back();
            overflow_.pop_back();
            r->next = nullptr;
            bucketAppend(r);
        }
    }

    detail::EventRecord *
    popBucket(std::size_t idx)
    {
        detail::EventRecord *r = head_[idx];
        head_[idx] = r->next;
        if (head_[idx] == nullptr) {
            tail_[idx] = nullptr;
            bitmap_[idx >> 6] &= ~(1ull << (idx & 63));
        }
        --bucketed_;
        return r;
    }

    /**
     * Detach the earliest pending event if its time is <= @p limit,
     * advancing the bucket cursor. The cursor (base_) only moves here,
     * immediately before the event executes and now_ catches up, so
     * schedule() never observes base_ > now_ and bucket indices stay
     * unambiguous. The bucketed-event counter skips the bitmap scan
     * entirely when every pending event sits in the overflow heap
     * (flash-latency events routinely live past the window).
     */
    detail::EventRecord *
    popNextAtMost(Tick limit)
    {
        if (size_ == 0)
            return nullptr;
        const std::size_t d = bucketed_ > 0 ? scanBitmap() : window_;
        if (d < window_) {
            // Bucketed events exist; the overflow heap only holds ticks
            // >= base_ + window_, so the earliest is in a bucket.
            if (base_ + d > limit)
                return nullptr;
            base_ += d;
        } else {
            assert(!overflow_.empty());
            if (overflow_.front()->when > limit)
                return nullptr;
            base_ = overflow_.front()->when;
        }
        // The window end advanced: migrate overflow events that now
        // fall inside it before any callback can schedule at those
        // ticks (heap pop order keeps same-tick FIFO intact).
        migrateUpTo(base_ + window_);
        return popBucket(base_ & mask_);
    }

    /** Run @p r's callback and recycle the record. */
    void
    execute(detail::EventRecord *r)
    {
        --size_;
        now_ = r->when;
        r->cb();
        // The callback ran out of the record's own storage, so the
        // record is only released (destroying the callback) after the
        // call returns.
        slab_.release(r);
    }

    std::vector<detail::EventRecord *> head_;
    std::vector<detail::EventRecord *> tail_;
    std::vector<std::uint64_t> bitmap_;
    std::vector<detail::EventRecord *> overflow_;
    Slab<detail::EventRecord> slab_;
    std::size_t window_;
    std::size_t mask_;
    std::size_t words_;
    Tick now_ = 0;
    Tick base_ = 0; ///< tick of the bucket cursor (<= now_ when idle)
    std::uint64_t seq_ = 0;
    std::size_t size_ = 0;
    std::size_t bucketed_ = 0; ///< events in buckets (rest: overflow)
};

} // namespace skybyte

#endif // SKYBYTE_COMMON_EVENT_QUEUE_H
