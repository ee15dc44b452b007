/**
 * @file
 * Tests for the page-granular SSD DRAM data cache: LRU within sets,
 * touched/dirty bitmap bookkeeping (Figures 5/6 inputs), invalidation
 * for migration, capacity accounting, and the copy-free fill contract
 * (caller writes the payload into the returned slot; a dirty victim's
 * payload surfaces only through the out-param buffer).
 */

#include <gtest/gtest.h>

#include "core/page_cache.h"

namespace skybyte {
namespace {

/** fill() helper matching the old by-value call shape. */
PageEvict
fillWith(PageCache &pc, std::uint64_t lpn, LineValue v,
         PageData *victim = nullptr)
{
    PageEvict ev;
    CachedPage *page = pc.fill(lpn, ev, victim);
    PageData &data = *pc.data(*page);
    data = PageData{};
    data[0] = v;
    return ev;
}

TEST(PageCache, FillThenLookup)
{
    PageCache pc(64 * kPageBytes, 4);
    EXPECT_EQ(pc.lookup(9), nullptr);
    fillWith(pc, 9, 42);
    CachedPage *page = pc.lookup(9);
    ASSERT_NE(page, nullptr);
    EXPECT_EQ((*pc.data(*page))[0], 42u);
    EXPECT_EQ(pc.hits(), 1u);
    EXPECT_EQ(pc.misses(), 1u);
}

TEST(PageCache, EvictsLruWithMetadata)
{
    PageCache pc(4 * kPageBytes, 4); // one set
    for (std::uint64_t lpn = 0; lpn < 4; ++lpn)
        fillWith(pc, lpn, lpn);
    // Touch 0..2 so page 3 is LRU; dirty it first.
    CachedPage *p3 = pc.lookup(3);
    p3->dirty = true;
    p3->dirtyMask = 0x5;
    p3->touchedMask = 0xf;
    pc.lookup(0);
    pc.lookup(1);
    pc.lookup(2);
    PageData victim{};
    PageEvict ev = fillWith(pc, 77, 7, &victim);
    EXPECT_TRUE(ev.evicted);
    EXPECT_EQ(ev.lpn, 3u);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.dirtyMask, 0x5u);
    EXPECT_EQ(ev.touchedMask, 0xfu);
    EXPECT_EQ(victim[0], 3u); // dirty victim payload preserved
}

TEST(PageCache, CleanVictimPayloadNotCopied)
{
    PageCache pc(4 * kPageBytes, 4); // one set
    for (std::uint64_t lpn = 0; lpn < 4; ++lpn)
        fillWith(pc, lpn, lpn + 10);
    PageData victim{};
    victim[0] = 0xdead;
    PageEvict ev = fillWith(pc, 99, 1, &victim);
    EXPECT_TRUE(ev.evicted);
    EXPECT_FALSE(ev.dirty);
    // Clean evictions skip the 4 KB copy: the buffer is untouched.
    EXPECT_EQ(victim[0], 0xdeadu);
}

TEST(PageCache, RefillingResidentPageKeepsOneCopy)
{
    PageCache pc(16 * kPageBytes, 4);
    fillWith(pc, 5, 1);
    PageEvict ev = fillWith(pc, 5, 2);
    EXPECT_FALSE(ev.evicted);
    EXPECT_EQ((*pc.data(*pc.lookup(5)))[0], 2u);
    EXPECT_EQ(pc.residentPages(), 1u);
}

TEST(PageCache, InvalidateReturnsContents)
{
    PageCache pc(16 * kPageBytes, 4);
    fillWith(pc, 8, 3);
    pc.lookup(8)->dirtyMask = 1;
    PageEvict out;
    PageData data{};
    EXPECT_TRUE(pc.invalidate(8, &out, &data));
    EXPECT_EQ(out.lpn, 8u);
    EXPECT_EQ(data[0], 3u);
    EXPECT_EQ(pc.lookup(8), nullptr);
    EXPECT_FALSE(pc.invalidate(8));
    EXPECT_EQ(pc.residentPages(), 0u);
}

TEST(PageCache, CapacityRespected)
{
    PageCache pc(32 * kPageBytes, 8);
    for (std::uint64_t lpn = 0; lpn < 100; ++lpn)
        fillWith(pc, lpn, lpn);
    EXPECT_LE(pc.residentPages(), pc.capacityPages());
    EXPECT_EQ(pc.capacityPages(), 32u);
}

TEST(PageCache, ForEachVisitsResidentOnly)
{
    PageCache pc(16 * kPageBytes, 4);
    fillWith(pc, 1, 1);
    fillWith(pc, 2, 2);
    pc.invalidate(1);
    int count = 0;
    pc.forEach([&](CachedPage &page) {
        count++;
        EXPECT_EQ(page.lpn, 2u);
    });
    EXPECT_EQ(count, 1);
}

TEST(PageCache, MinimumGeometry)
{
    PageCache pc(0, 16); // degenerate: clamps to at least one set
    EXPECT_GE(pc.capacityPages(), 16u);
    fillWith(pc, 1, 9);
    EXPECT_NE(pc.lookup(1), nullptr);
}

} // namespace
} // namespace skybyte
