/**
 * @file
 * Unit tests for the discrete-event kernel: time ordering, deterministic
 * same-tick FIFO, clamping, bounded runs, the calendar-window-to-heap
 * overflow crossover, and order equivalence against the seed kernel
 * (LegacyEventQueue) under randomized schedules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
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

TEST(EventQueue, FarEventsCrossCalendarWindowIntoHeap)
{
    // Events far beyond the calendar window overflow into the heap and
    // must come back in exact time order as the cursor advances.
    EventQueue eq;
    std::vector<Tick> fired;
    const Tick w = EventQueue::kWindowTicks;
    const std::vector<Tick> whens = {
        3,         w - 1,     w,         w + 1,    2 * w,
        5 * w + 7, 3 * w - 2, 10 * w,    w / 2,    7,
        w + 1,     5 * w + 7, 100 * w,   0,        w,
    };
    for (Tick t : whens)
        eq.schedule(t, [&fired, &eq] { fired.push_back(eq.now()); });
    eq.run();
    std::vector<Tick> expected = whens;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(eq.now(), 100 * w);
}

TEST(EventQueue, SameTickFifoAcrossOverflowCrossover)
{
    // Same-tick events split between the heap (scheduled while the
    // tick was out of the window) and the calendar (scheduled after the
    // cursor advanced) must still fire in schedule order.
    EventQueue eq;
    std::vector<int> order;
    const Tick target = 4 * EventQueue::kWindowTicks + 17;
    eq.schedule(target, [&] { order.push_back(0); }); // via heap
    eq.schedule(target, [&] { order.push_back(1); }); // via heap
    // An intermediate event close to the target pulls the window
    // forward so late schedules at `target` go straight to a bucket.
    eq.schedule(target - 5, [&] {
        eq.schedule(target, [&] { order.push_back(2); });
        eq.scheduleAfter(5, [&] { order.push_back(3); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
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
    // ones take the heap fallback. On both paths the captured resources
    // are released once after execution, and once when the queue is
    // destroyed with the event still pending.
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
    auto big_token = std::make_shared<int>(7);
    const Small small{small_token, {}};
    const Big big{big_token, {}};
    int fired = 0;
    {
        EventQueue eq;
        eq.schedule(1, [small, &fired] { fired += *small.t; });
        eq.schedule(1, [big, &fired] { fired += *big.t; });
        eq.schedule(2, [small] { (void)small; });
        eq.schedule(2, [big] { (void)big; });
        // token + local copy + 2 events
        EXPECT_EQ(small_token.use_count(), 4);
        EXPECT_EQ(big_token.use_count(), 4);
        eq.run(1);
        EXPECT_EQ(fired, 10);
        // executed events destroyed
        EXPECT_EQ(small_token.use_count(), 3);
        EXPECT_EQ(big_token.use_count(), 3);
    }
    // dropped pending events destroyed with the queue
    EXPECT_EQ(small_token.use_count(), 2);
    EXPECT_EQ(big_token.use_count(), 2);
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

TEST(EventQueue, WindowAndChunkKnobsNeverChangeExecutionOrder)
{
    // The calendar window and slab chunk size are wall-clock tuning
    // knobs (SimConfig::kernel); any window must produce the exact
    // event order of the default, including heavy overflow traffic
    // when the window is tiny.
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
                    const Tick d = next() % 70'000;
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
