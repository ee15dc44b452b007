/**
 * @file
 * Unit tests for the discrete-event kernel: time ordering, deterministic
 * same-tick FIFO, clamping, bounded runs, moves between the three
 * levels (fine buckets, coarse slots, far heap), destruction with
 * records pending on every level, and order equivalence against the
 * seed kernel (LegacyEventQueue) under randomized schedules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "../bench/legacy_event_queue.h"
#include "common/event_queue.h"

namespace skybyte {
namespace {

TEST(EventQueue, StartsAtZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PastSchedulingClampsToNow)
{
    EventQueue eq;
    Tick fired_at = 0;
    eq.schedule(100, [&] {
        eq.schedule(50, [&] { fired_at = eq.now(); }); // in the past
    });
    eq.run();
    EXPECT_EQ(fired_at, 100u);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick fired_at = 0;
    eq.schedule(40, [&] {
        eq.scheduleAfter(15, [&] { fired_at = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(fired_at, 55u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 100)
            eq.scheduleAfter(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(count, 100);
    EXPECT_EQ(eq.now(), 99u);
}

TEST(EventQueue, RunRespectsLimit)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 0; t < 10; ++t)
        eq.schedule(t * 10, [&] { count++; });
    eq.run(45);
    EXPECT_EQ(count, 5); // events at 0,10,20,30,40
    EXPECT_EQ(eq.pending(), 5u);
}

TEST(EventQueue, BoundedRunAdvancesClockToLimit)
{
    // Events remain past the limit, yet the clock lands exactly on it,
    // so back-to-back bounded runs resume from a consistent time (the
    // seed kernel only advanced the clock when the queue drained).
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { count++; });
    eq.schedule(500, [&] { count++; });
    eq.run(100);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run(400); // nothing fires, clock still advances
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 400u);
    eq.run();
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, FarEventsComeBackInTimeOrderFromEveryLevel)
{
    // Events past the cursor's block wait on the coarse level, and
    // those past its horizon (kCoarseSlots blocks) in the heap; all
    // must come back in exact time order as the cursor advances.
    EventQueue eq;
    std::vector<Tick> fired;
    const Tick w = EventQueue::kWindowTicks;
    const Tick horizon = EventQueue::kCoarseSlots * w;
    const std::vector<Tick> whens = {
        3,           w - 1,       w,           w + 1,
        2 * w,       5 * w + 7,   3 * w - 2,   10 * w,
        w / 2,       7,           w + 1,       5 * w + 7,
        100 * w,     0,           w,           horizon - 1,
        horizon,     horizon + 1, 3 * horizon, horizon - 1,
        2 * horizon, horizon + w,
    };
    for (Tick t : whens)
        eq.schedule(t, [&fired, &eq] { fired.push_back(eq.now()); });
    eq.run();
    std::vector<Tick> expected = whens;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(eq.now(), 3 * horizon);
}

TEST(EventQueue, SameTickFifoAcrossOverflowCrossover)
{
    // Same-tick events split between the coarse level (scheduled while
    // the tick was past the cursor's block) and the fine buckets
    // (scheduled after the cursor entered it) must still fire in
    // schedule order.
    EventQueue eq;
    std::vector<int> order;
    const Tick target = 4 * EventQueue::kWindowTicks + 17;
    eq.schedule(target, [&] { order.push_back(0); }); // via coarse
    eq.schedule(target, [&] { order.push_back(1); }); // via coarse
    // An intermediate event in the target's block moves the cursor
    // there, so late schedules at `target` go straight to a bucket.
    eq.schedule(target - 5, [&] {
        eq.schedule(target, [&] { order.push_back(2); });
        eq.scheduleAfter(5, [&] { order.push_back(3); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, SameTickFifoAcrossAllThreeLevels)
{
    // One tick reached from the heap, the coarse level and the fine
    // level in turn: each later schedule lands one level nearer, and
    // the order must stay the schedule order.
    for (const std::size_t window : {64u, 8192u}) {
        EventQueue eq(window);
        std::vector<int> order;
        const Tick w = window;
        const Tick target = 2000 * w + 17;
        eq.schedule(target, [&] { order.push_back(0); }); // heap
        eq.schedule(target - 1500 * w, [&] {
            // 1500 blocks ahead: still past the coarse horizon.
            eq.schedule(target, [&] { order.push_back(1); });
        });
        eq.schedule(target - 1000 * w, [&] {
            // The heap has handed its events to the coarse level.
            eq.schedule(target, [&] { order.push_back(2); });
        });
        eq.schedule(target - 5, [&] {
            // The target's block has cascaded into the fine buckets.
            eq.schedule(target, [&] {
                order.push_back(3);
                eq.schedule(target, [&] { order.push_back(5); });
            });
            eq.schedule(target, [&] { order.push_back(4); });
        });
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}))
            << "window " << window;
        EXPECT_EQ(eq.now(), target);
    }
}

TEST(EventQueue, ChainsSpanningManyWindows)
{
    // A self-rescheduling chain with a stride larger than the window
    // exercises the empty-window jump path on every step.
    EventQueue eq;
    int count = 0;
    const Tick stride = 3 * EventQueue::kWindowTicks + 1;
    std::function<void()> chain = [&] {
        if (++count < 50)
            eq.scheduleAfter(stride, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(count, 50);
    EXPECT_EQ(eq.now(), 49 * stride);
}

TEST(EventQueue, OversizedCallbacksAndPendingDestruction)
{
    // Captures that fit the inline buffer live in the record; larger
    // ones do not compile. The captured resources are released once
    // after execution, and once when the queue is destroyed with the
    // event still pending.
    struct Small
    {
        std::shared_ptr<int> t;
        std::uint64_t pad[4];
    };
    struct Big
    {
        std::shared_ptr<int> t;
        std::uint64_t pad[16];
    };
    static_assert(sizeof(Small) <= 80 && sizeof(Big) > 80);
    auto small_token = std::make_shared<int>(3);
    const Small small{small_token, {}};
    const Big big{nullptr, {}};
    auto big_fn = [big] { (void)big; };
    static_assert(!std::is_constructible_v<
                  decltype(detail::EventRecord::cb), decltype(big_fn)>);
    int fired = 0;
    {
        EventQueue eq;
        eq.schedule(1, [small, &fired] { fired += *small.t; });
        eq.schedule(2, [small] { (void)small; });
        // token + local copy + 2 events
        EXPECT_EQ(small_token.use_count(), 4);
        eq.run(1);
        EXPECT_EQ(fired, 3);
        // executed events destroyed
        EXPECT_EQ(small_token.use_count(), 3);
    }
    // dropped pending events destroyed with the queue
    EXPECT_EQ(small_token.use_count(), 2);
}

TEST(EventQueue, DestructionReleasesRecordsOnEveryLevel)
{
    // Records pending in the fine buckets, the coarse slots and the far
    // heap, some of them moved by a cascade before the queue dies: each
    // callback is destroyed exactly once (ASan checks the rest).
    auto token = std::make_shared<int>(0);
    int fired = 0;
    {
        EventQueue eq(64, 4);
        const Tick w = 64;
        const Tick horizon = EventQueue::kCoarseSlots * w;
        const std::vector<Tick> whens = {
            5,           6,           w + 3,           7 * w,
            horizon - 1, horizon + 9, 4 * horizon + 1, 50 * horizon,
        };
        for (Tick t : whens)
            eq.schedule(t, [token, &fired] {
                (void)token;
                ++fired;
            });
        EXPECT_EQ(token.use_count(), 9);
        // Fire the two fine events and move the cursor into block 1,
        // cascading its slot, then stop with events on every level.
        eq.run(w + 2);
        EXPECT_EQ(fired, 2);
        EXPECT_EQ(eq.pending(), 6u);
        EXPECT_EQ(token.use_count(), 7);
        eq.schedule(w + 4, [token] { (void)token; });       // fine
        eq.schedule(3 * w, [token] { (void)token; });       // coarse
        eq.schedule(9 * horizon, [token] { (void)token; }); // heap
        EXPECT_EQ(token.use_count(), 10);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, MatchesLegacyKernelOnRandomSchedules)
{
    // Drive the calendar kernel and the seed kernel with an identical
    // randomized schedule (including events scheduled from callbacks)
    // and require the exact same execution order.
    auto drive = [](auto &eq) {
        std::vector<std::pair<Tick, int>> log;
        std::uint32_t rng = 0xc0ffee11u;
        auto next = [&rng] {
            rng ^= rng << 13;
            rng ^= rng >> 17;
            rng ^= rng << 5;
            return rng;
        };
        int id = 0;
        for (int i = 0; i < 512; ++i) {
            const Tick when = next() % (3 * EventQueue::kWindowTicks);
            const int my = id++;
            eq.schedule(when, [&, my] {
                log.emplace_back(eq.now(), my);
                if (log.size() < 2000) {
                    const Tick d = next() % 70'000; // some overflow
                    const int child = id++;
                    eq.scheduleAfter(d, [&, child] {
                        log.emplace_back(eq.now(), child);
                    });
                }
            });
        }
        eq.run();
        return log;
    };
    EventQueue calendar;
    LegacyEventQueue legacy;
    const auto a = drive(calendar);
    const auto b = drive(legacy);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a, b);
}

/**
 * A randomized schedule whose delays span every level at any window
 * from 64 to 65536 ticks: log-uniform up to 2^28 ticks (~16.8 ms,
 * GC-erase scale), so some land in the cursor's block, some on the
 * coarse level and some past its horizon. Callbacks schedule further
 * events, a quarter of the targets reuse an earlier target tick (so
 * same-tick events meet after passing through different levels), and
 * bounded run(limit) calls alternate with schedules from outside at
 * absolute ticks >= limit. Returns (tick, id) in execution order.
 */
template <typename Q>
std::vector<std::pair<Tick, int>>
driveAllLevels(Q &eq, std::uint32_t seed)
{
    struct Driver
    {
        Q &eq;
        std::uint32_t rng;
        std::vector<std::pair<Tick, int>> log;
        std::vector<Tick> hot;
        int ids = 0;

        std::uint32_t
        next()
        {
            rng ^= rng << 13;
            rng ^= rng >> 17;
            rng ^= rng << 5;
            return rng;
        }

        Tick
        target(Tick from)
        {
            if (!hot.empty() && next() % 4 == 0) {
                const Tick t = hot[next() % hot.size()];
                if (t >= from)
                    return t;
            }
            const Tick span = Tick{2} << (next() % 28);
            const Tick t = from + next() % span;
            if (next() % 8 == 0)
                hot.push_back(t);
            return t;
        }

        void
        add(Tick when, int depth)
        {
            const int id = ids++;
            eq.schedule(when, [this, id, depth] {
                log.emplace_back(eq.now(), id);
                if (depth == 0)
                    return;
                for (std::uint32_t k = next() % 3; k > 0; --k)
                    add(target(eq.now()), depth - 1);
            });
        }
    };
    Driver d{eq, seed, {}, {}};
    for (int i = 0; i < 300; ++i)
        d.add(d.target(0), 3);
    Tick limit = 0;
    for (int round = 0; round < 40; ++round) {
        const Tick span = Tick{2} << (d.next() % 26);
        limit += d.next() % span;
        eq.run(limit);
        for (std::uint32_t k = d.next() % 6; k > 0; --k)
            d.add(d.target(limit), 2);
    }
    eq.run();
    return std::move(d.log);
}

TEST(EventQueue, MatchesLegacyKernelAcrossAllThreeLevels)
{
    for (const std::size_t window : {64u, 1024u, 8192u, 65536u}) {
        for (const std::uint32_t seed : {0x9e3779b9u, 0x2545f491u}) {
            EventQueue calendar(window, 16);
            LegacyEventQueue legacy;
            const auto a = driveAllLevels(calendar, seed);
            const auto b = driveAllLevels(legacy, seed);
            ASSERT_EQ(a.size(), b.size()) << "window " << window;
            EXPECT_EQ(a, b) << "window " << window;
            EXPECT_GT(a.size(), 1000u);
            EXPECT_EQ(calendar.pending(), 0u);
        }
    }
}

TEST(EventQueue, BoundedRunsLandTheClockOnTheirLimit)
{
    // Bounded runs that stop inside a block, at a block start, and
    // past the coarse horizon while every event sits in the heap.
    for (const std::size_t window : {64u, 1024u, 8192u, 65536u}) {
        EventQueue eq(window);
        const Tick w = window;
        const Tick horizon = EventQueue::kCoarseSlots * w;
        std::vector<std::pair<Tick, int>> log;
        auto at = [&](Tick t, int id) {
            eq.schedule(t, [&log, &eq, id] {
                log.emplace_back(eq.now(), id);
            });
        };
        at(5 * horizon, 0);
        eq.run(3 * horizon + 17); // near-empty queue: nothing fires
        EXPECT_TRUE(log.empty());
        EXPECT_EQ(eq.now(), 3 * horizon + 17);
        const Tick t0 = eq.now();
        at(t0 + 5, 1);
        at(t0 + 1, 2);
        at(t0 + 1, 3); // same tick: after 2
        at(t0 + 2 * w, 4);
        at(t0 + 2 * horizon + 3, 5); // past 0's tick, in the heap again
        at(t0 + w - (t0 + w) % w, 6); // the next block's first tick
        eq.run(t0 + w - (t0 + w) % w);
        EXPECT_EQ(eq.now(), t0 + w - (t0 + w) % w);
        EXPECT_EQ(log.size(), 4u); // an event on the limit itself fires
        at(eq.now(), 7); // same tick as 6, scheduled from outside
        eq.run();
        const std::vector<std::pair<Tick, int>> expected = {
            {t0 + 1, 2},
            {t0 + 1, 3},
            {t0 + 5, 1},
            {t0 + w - (t0 + w) % w, 6},
            {t0 + w - (t0 + w) % w, 7},
            {t0 + 2 * w, 4},
            {5 * horizon, 0},
            {t0 + 2 * horizon + 3, 5},
        };
        EXPECT_EQ(log, expected) << "window " << window;
    }
}

TEST(EventQueue, WindowAndChunkKnobsNeverChangeExecutionOrder)
{
    // The calendar window and slab chunk size are wall-clock tuning
    // knobs (SimConfig::kernel); any window must produce the exact
    // event order of the default, including heavy heap traffic when
    // the window is tiny. A quarter of the child delays are far
    // (up to ~8.4 M ticks, the default coarse horizon), so every
    // window moves events through all three levels.
    auto drive = [](auto &eq) {
        std::vector<std::pair<Tick, int>> log;
        std::uint32_t rng = 0x5eedf00du;
        auto next = [&rng] {
            rng ^= rng << 13;
            rng ^= rng >> 17;
            rng ^= rng << 5;
            return rng;
        };
        int id = 0;
        for (int i = 0; i < 512; ++i) {
            const Tick when = next() % (3 * EventQueue::kWindowTicks);
            const int my = id++;
            eq.schedule(when, [&, my] {
                log.emplace_back(eq.now(), my);
                if (log.size() < 2000) {
                    const Tick d = next() % 4 == 0
                                       ? next() % 8'400'000
                                       : next() % 70'000;
                    const int child = id++;
                    eq.scheduleAfter(d, [&, child] {
                        log.emplace_back(eq.now(), child);
                    });
                }
            });
        }
        eq.run();
        return log;
    };
    EventQueue defaults;
    const auto reference = drive(defaults);
    for (const std::size_t window : {64u, 1024u, 65536u}) {
        EventQueue tuned(window, 16);
        EXPECT_EQ(drive(tuned), reference) << "window " << window;
    }
}

TEST(EventQueue, RejectsInvalidKernelKnobs)
{
    EXPECT_THROW(EventQueue(0), std::invalid_argument);
    EXPECT_THROW(EventQueue(32), std::invalid_argument);   // < 64
    EXPECT_THROW(EventQueue(1000), std::invalid_argument); // not 2^n
    EXPECT_THROW(EventQueue(8192, 0), std::invalid_argument);
    EXPECT_NO_THROW(EventQueue(64, 1));
}

} // namespace
} // namespace skybyte
