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
 *  - Three-level calendar. Time is cut into aligned blocks of
 *    kWindowTicks (512 ns). The fine level holds the cursor's block in
 *    per-tick FIFO buckets; an occupancy bitmap lets the cursor skip
 *    empty ticks a word at a time. The coarse level holds the next
 *    kCoarseSlots - 1 blocks (~524 us ahead: flash reads, programs and
 *    erases, GC) as one FIFO per block, with its own bitmap. Events
 *    past that horizon wait in a binary min-heap ordered by
 *    (when, seq). When the cursor leaves its block, the heap hands the
 *    coarse level every event now inside the horizon, popping in
 *    (when, seq) order, and the next occupied block's FIFO cascades
 *    into the fine buckets in list order. Both moves finish before any
 *    callback can schedule into their destination and every level
 *    appends at the tail, so same-tick events run in schedule order
 *    whichever levels they passed through (a hierarchical timing
 *    wheel, Varghese and Lauck, SOSP '87). Each event crossing into a
 *    later block is moved once more than in a single window; that
 *    move is the price of keeping flash-scale events off the heap.
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
#include <array>
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
    std::uint64_t seq = 0;       ///< schedule order: far-heap tie-break
    EventRecord *next = nullptr; ///< bucket or coarse-slot FIFO chain
    /**
     * Sized so that the request path's largest steady-state completion
     * lambda — a move-only MemCallback (48 B) plus a MemResponse
     * payload (32 B) — is stored inline. A larger callable does not
     * compile.
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
    /**
     * Default calendar window: the width of one aligned block of ticks,
     * which is both the fine level's span and one coarse slot's span.
     */
    static constexpr std::size_t kWindowTicks = 8192; // 512 ns
    /** Coarse-level slots: the wheel reaches this many blocks ahead. */
    static constexpr std::size_t kCoarseSlots = 1024;
    /** Default EventRecords carved per slab chunk. */
    static constexpr std::size_t kChunkRecords = 512;

    /**
     * @param window_ticks block width in ticks (power of two >= 64);
     *                     the sweet spot depends on the event-stride
     *                     distribution, hence the SimConfig knob
     * @param chunk_records EventRecords carved per slab chunk
     */
    explicit EventQueue(std::size_t window_ticks = kWindowTicks,
                        std::size_t chunk_records = kChunkRecords)
        : head_(window_ticks, nullptr), tailLink_(window_ticks),
          bitmap_(window_ticks / 64, 0), slab_(chunk_records),
          mask_(window_ticks - 1),
          shift_(static_cast<unsigned>(std::countr_zero(window_ticks)))
    {
        if (window_ticks < 64 || (window_ticks & mask_) != 0) {
            throw std::invalid_argument(
                "calendar window must be a power of two >= 64");
        }
        if (chunk_records == 0)
            throw std::invalid_argument("slab chunk size must be > 0");
        for (std::size_t i = 0; i < window_ticks; ++i)
            tailLink_[i] = &head_[i];
        for (std::size_t i = 0; i < kCoarseSlots; ++i)
            coarseTailLink_[i] = &coarseHead_[i];
    }

    /** Release every pending record, destroying its callback. */
    ~EventQueue()
    {
        for (detail::EventRecord *r : head_)
            releaseChain(r);
        for (detail::EventRecord *r : coarseHead_)
            releaseChain(r);
        for (detail::EventRecord *r : far_)
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
        // when >= now_ >= base_, so the block distance never wraps.
        const Tick ahead = (when >> shift_) - block_;
        if (ahead == 0)
            fineAppend(r);
        else if (ahead < kCoarseSlots)
            coarseAppend(r);
        else
            farPush(r);
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
    /** Min-heap order over far events: (when, seq) ascending. */
    struct FarLater
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

    /**
     * Release a FIFO chain. Reads next before each release: the slab's
     * free-list link overwrites the record's storage.
     */
    void
    releaseChain(detail::EventRecord *r)
    {
        while (r != nullptr) {
            detail::EventRecord *next = r->next;
            slab_.release(r);
            r = next;
        }
    }

    void
    fineAppend(detail::EventRecord *r)
    {
        const std::size_t idx = r->when & mask_;
        *tailLink_[idx] = r;
        tailLink_[idx] = &r->next;
        bitmap_[idx >> 6] |= 1ull << (idx & 63);
        ++fineCount_;
    }

    void
    coarseAppend(detail::EventRecord *r)
    {
        const std::size_t slot = (r->when >> shift_) & (kCoarseSlots - 1);
        *coarseTailLink_[slot] = r;
        coarseTailLink_[slot] = &r->next;
        coarseBitmap_[slot >> 6] |= 1ull << (slot & 63);
        ++coarseCount_;
    }

    void
    farPush(detail::EventRecord *r)
    {
        far_.push_back(r);
        std::push_heap(far_.begin(), far_.end(), FarLater{});
    }

    /**
     * Offset from the cursor of the first occupied fine bucket. The
     * fine level holds only the cursor's block, at or after the
     * cursor, so the scan never wraps; requires fineCount_ > 0.
     */
    std::size_t
    scanFine() const
    {
        const std::size_t start = base_ & mask_;
        std::size_t word = start >> 6;
        const std::uint64_t first = bitmap_[word] >> (start & 63);
        if (first != 0)
            return static_cast<std::size_t>(std::countr_zero(first));
        do {
            ++word;
            assert(word < bitmap_.size());
        } while (bitmap_[word] == 0);
        return (word << 6)
               + static_cast<std::size_t>(std::countr_zero(bitmap_[word]))
               - start;
    }

    /**
     * Blocks from the cursor's block to the first occupied coarse slot
     * (1..kCoarseSlots-1), scanning the slot bitmap circularly from
     * the cursor's own slot, which is always empty; requires
     * coarseCount_ > 0.
     */
    std::size_t
    scanCoarse() const
    {
        constexpr std::size_t kWords = kCoarseSlots / 64;
        const std::size_t start = block_ & (kCoarseSlots - 1);
        const std::size_t word = start >> 6;
        const std::size_t bit = start & 63;
        const std::uint64_t first = coarseBitmap_[word] >> bit;
        if (first != 0)
            return static_cast<std::size_t>(std::countr_zero(first));
        std::size_t off = 64 - bit;
        for (std::size_t i = 1; i < kWords; ++i) {
            const std::uint64_t w = coarseBitmap_[(word + i) % kWords];
            if (w != 0)
                return off
                       + static_cast<std::size_t>(std::countr_zero(w));
            off += 64;
        }
        // Wrap: the low bits of the starting word are the farthest
        // slots, kCoarseSlots - bit blocks ahead.
        const std::uint64_t low = coarseBitmap_[word] & ((1ull << bit) - 1);
        assert(low != 0);
        return off + static_cast<std::size_t>(std::countr_zero(low));
    }

    /**
     * Move the cursor to the next block holding an event, if that
     * block starts at or before @p limit. The level moves happen
     * before any callback can schedule into their destination: first
     * the heap hands every event now inside the coarse horizon to its
     * slot, popping in (when, seq) order, then the new block's slot
     * cascades into the fine buckets in list order. Each level thus
     * receives same-tick events in schedule order, and FIFO holds
     * across all three.
     * @retval false if no block starts at or before @p limit.
     */
    bool
    advanceBlock(Tick limit)
    {
        Tick next_block;
        if (coarseCount_ != 0)
            next_block = block_ + scanCoarse();
        else if (!far_.empty())
            next_block = far_.front()->when >> shift_;
        else
            return false;
        if ((next_block << shift_) > limit)
            return false;
        block_ = next_block;
        while (!far_.empty()
               && (far_.front()->when >> shift_) - block_ < kCoarseSlots) {
            std::pop_heap(far_.begin(), far_.end(), FarLater{});
            detail::EventRecord *r = far_.back();
            far_.pop_back();
            coarseAppend(r);
        }
        const std::size_t slot = block_ & (kCoarseSlots - 1);
        detail::EventRecord *r = coarseHead_[slot];
        coarseHead_[slot] = nullptr;
        coarseTailLink_[slot] = &coarseHead_[slot];
        coarseBitmap_[slot >> 6] &= ~(1ull << (slot & 63));
        // Start the cursor at the earliest cascaded tick (or the limit,
        // if that comes first) rather than the block's first tick, so
        // a sparse block is not scanned from its start.
        Tick first = kTickMax;
        while (r != nullptr) {
            detail::EventRecord *next_rec = r->next;
            r->next = nullptr;
            first = std::min(first, r->when);
            fineAppend(r);
            --coarseCount_;
            r = next_rec;
        }
        base_ = std::min(first, limit);
        return true;
    }

    detail::EventRecord *
    popBucket(std::size_t idx)
    {
        detail::EventRecord *r = head_[idx];
        head_[idx] = r->next;
        if (r->next == nullptr) {
            tailLink_[idx] = &head_[idx];
            bitmap_[idx >> 6] &= ~(1ull << (idx & 63));
        }
        --fineCount_;
        return r;
    }

    /**
     * Detach the earliest pending event if its time is <= @p limit,
     * advancing the cursor. The cursor (base_) moves only in this call
     * and never past @p limit, so schedule() never observes
     * base_ > now_ once the event executes or run() lands the clock on
     * its limit.
     */
    detail::EventRecord *
    popNextAtMost(Tick limit)
    {
        if (fineCount_ == 0 && !advanceBlock(limit))
            return nullptr;
        const Tick t = base_ + scanFine();
        if (t > limit)
            return nullptr;
        base_ = t;
        return popBucket(t & mask_);
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

    // Fine level: per-tick FIFO buckets over the cursor's block. Each
    // FIFO keeps its tail as the address of the link to fill next, so
    // an append does not branch on emptiness. Heads and tails are two
    // arrays, not one array of pairs: the pairs ran ~3% more events/sec
    // in bench_kernel_hotpath, but their single 128 KB allocation moved
    // glibc's heap-trim point so that paper-dram's repeated System
    // construction re-faulted the heap each time (setup_s 4x).
    std::vector<detail::EventRecord *> head_;
    std::vector<detail::EventRecord **> tailLink_;
    std::vector<std::uint64_t> bitmap_;
    // Coarse level: one FIFO per block, the next kCoarseSlots - 1
    // blocks after the cursor's.
    std::array<detail::EventRecord *, kCoarseSlots> coarseHead_{};
    std::array<detail::EventRecord **, kCoarseSlots> coarseTailLink_;
    std::array<std::uint64_t, kCoarseSlots / 64> coarseBitmap_{};
    // Beyond the coarse horizon: a (when, seq) min-heap.
    std::vector<detail::EventRecord *> far_;
    Slab<detail::EventRecord> slab_;
    std::size_t mask_;
    unsigned shift_;
    Tick now_ = 0;
    Tick base_ = 0;  ///< tick of the fine cursor (<= now_ when idle)
    Tick block_ = 0; ///< base_ >> shift_: the block the fine level holds
    std::uint64_t seq_ = 0;
    std::size_t size_ = 0;
    std::size_t fineCount_ = 0;   ///< events in the fine buckets
    std::size_t coarseCount_ = 0; ///< events in the coarse slots
};

} // namespace skybyte

#endif // SKYBYTE_COMMON_EVENT_QUEUE_H
