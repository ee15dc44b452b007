/**
 * @file
 * Tests for the Promotion Look-aside Buffer (§III-C, §IV): flat 4 KB
 * entries, the two-level huge-page extension, in-order chunk migration,
 * capacity accounting, and the hardware-cost model.
 */

#include <vector>

#include <gtest/gtest.h>

#include "core/plb.h"

namespace skybyte {
namespace {

TEST(Plb, AllocateFindRelease)
{
    Plb plb(4);
    Plb::Entry *e = plb.allocate(10, 1);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->baseLpn, 10u);
    EXPECT_EQ(plb.occupancy(), 1u);
    EXPECT_EQ(plb.find(10), e);
    EXPECT_EQ(plb.find(11), nullptr);
    plb.release(10);
    EXPECT_EQ(plb.find(10), nullptr);
    EXPECT_EQ(plb.occupancy(), 0u);
    EXPECT_EQ(plb.stats().releases, 1u);
}

TEST(Plb, CapacityRejectsWhenFull)
{
    Plb plb(2);
    EXPECT_NE(plb.allocate(0, 1), nullptr);
    EXPECT_NE(plb.allocate(1, 1), nullptr);
    EXPECT_TRUE(plb.full());
    EXPECT_EQ(plb.allocate(2, 1), nullptr);
    EXPECT_EQ(plb.stats().rejectedFull, 1u);
    EXPECT_EQ(plb.stats().peakOccupancy, 2u);
    plb.release(0);
    EXPECT_FALSE(plb.full());
    EXPECT_NE(plb.allocate(2, 1), nullptr);
}

TEST(Plb, DuplicateAllocateRefused)
{
    Plb plb(4);
    ASSERT_NE(plb.allocate(7, 1), nullptr);
    EXPECT_EQ(plb.allocate(7, 1), nullptr);
    EXPECT_EQ(plb.occupancy(), 1u);
}

TEST(Plb, FlatEntryCompletesAfterAllLines)
{
    Plb plb(1);
    Plb::Entry *e = plb.allocate(3, 1);
    ASSERT_NE(e, nullptr);
    for (std::uint32_t line = 0; line + 1 < kLinesPerPage; ++line) {
        EXPECT_FALSE(plb.markLine(*e, 0, line));
        EXPECT_TRUE(e->lineMigrated(0, line));
        EXPECT_FALSE(e->lineMigrated(0, line + 1));
    }
    EXPECT_TRUE(plb.markLine(*e, 0, kLinesPerPage - 1));
    EXPECT_EQ(plb.stats().lineCopies, kLinesPerPage);
    EXPECT_EQ(plb.stats().chunkCompletions, 1u);
}

TEST(Plb, FlatEntryHardwareCostIs24Bytes)
{
    Plb plb(1);
    Plb::Entry *e = plb.allocate(0, 1);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->hardwareBytes(), 24u); // 8B src + 8B dst + 8B bitmap
    EXPECT_FALSE(e->huge());
}

TEST(Plb, HugeEntryCoversWholeRegion)
{
    Plb plb(1);
    Plb::Entry *e = plb.allocate(512, 512); // one 2 MB page
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->huge());
    // Every 4 KB page of the region resolves to the same entry.
    EXPECT_EQ(plb.find(512), e);
    EXPECT_EQ(plb.find(700), e);
    EXPECT_EQ(plb.find(1023), e);
    EXPECT_EQ(plb.find(1024), nullptr);
    EXPECT_EQ(plb.find(511), nullptr);
    plb.release(512);
    EXPECT_EQ(plb.find(700), nullptr);
}

TEST(Plb, HugeEntryMigratesChunkByChunk)
{
    Plb plb(1);
    Plb::Entry *e = plb.allocate(0, 4);
    ASSERT_NE(e, nullptr);
    // Complete chunk 0.
    for (std::uint32_t line = 0; line < kLinesPerPage; ++line)
        EXPECT_FALSE(plb.markLine(*e, 0, line));
    EXPECT_EQ(e->chunksDone(), 1u);
    EXPECT_EQ(e->currentChunk, 1u);
    // All of chunk 0 reads as migrated via the first-level bitmap.
    EXPECT_TRUE(e->lineMigrated(0, 0));
    EXPECT_TRUE(e->lineMigrated(0, kLinesPerPage - 1));
    // Chunk 1 is in flight: partial.
    EXPECT_FALSE(plb.markLine(*e, 1, 5));
    EXPECT_TRUE(e->lineMigrated(1, 5));
    EXPECT_FALSE(e->lineMigrated(1, 6));
    // Chunk 2 has not started.
    EXPECT_FALSE(e->lineMigrated(2, 0));
}

TEST(Plb, HugeEntryOutOfOrderChunkIgnored)
{
    Plb plb(1);
    Plb::Entry *e = plb.allocate(0, 4);
    ASSERT_NE(e, nullptr);
    // §IV: a single second-level entry tracks only the current chunk, so
    // chunks must migrate in order; marks for other chunks are ignored.
    EXPECT_FALSE(plb.markLine(*e, 2, 0));
    EXPECT_FALSE(e->lineMigrated(2, 0));
    EXPECT_EQ(e->chunksDone(), 0u);
}

TEST(Plb, HugeEntryCompletesAfterAllChunks)
{
    Plb plb(1);
    Plb::Entry *e = plb.allocate(0, 3);
    ASSERT_NE(e, nullptr);
    bool done = false;
    for (std::uint32_t chunk = 0; chunk < 3; ++chunk)
        for (std::uint32_t line = 0; line < kLinesPerPage; ++line)
            done = plb.markLine(*e, chunk, line);
    EXPECT_TRUE(done);
    EXPECT_EQ(e->chunksDone(), 3u);
    EXPECT_EQ(plb.stats().chunkCompletions, 3u);
}

TEST(Plb, HugeEntryHardwareCostAddsFirstLevelBitmap)
{
    Plb plb(1);
    Plb::Entry *e = plb.allocate(0, 512);
    ASSERT_NE(e, nullptr);
    // Two-level entry (§IV): 64 B chunk bitmap + the flat 24 B — far
    // below the 4 KB a flat bitmap over 32,768 cachelines would need.
    EXPECT_EQ(e->hardwareBytes(), 88u);
}

TEST(Plb, OutOfRangeMarksIgnored)
{
    Plb plb(1);
    Plb::Entry *e = plb.allocate(0, 1);
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(plb.markLine(*e, 0, kLinesPerPage)); // bad line
    EXPECT_FALSE(plb.markLine(*e, 1, 0));             // bad chunk
    EXPECT_FALSE(e->lineMigrated(0, kLinesPerPage));
    EXPECT_FALSE(e->lineMigrated(1, 0));
    EXPECT_EQ(plb.stats().lineCopies, 0u);
}

TEST(Plb, EntryPointersSurviveLaterAllocations)
{
    // Each migration has one fixed slot: allocating more entries must
    // neither move the first one nor hide any live region from find().
    Plb plb(64);
    Plb::Entry *first = plb.allocate(1000, 1);
    ASSERT_NE(first, nullptr);
    EXPECT_FALSE(plb.markLine(*first, 0, 3));
    first->dirtyPages.push_back(1000);
    std::vector<Plb::Entry *> later;
    for (std::uint64_t i = 0; i < 11; ++i) {
        Plb::Entry *e = plb.allocate(i * 512, 512);
        ASSERT_NE(e, nullptr);
        later.push_back(e);
    }
    Plb::Entry *odd = plb.allocate(6001, 4); // unaligned 4-page region
    ASSERT_NE(odd, nullptr);
    EXPECT_EQ(plb.occupancy(), 13u);

    EXPECT_EQ(first->baseLpn, 1000u);
    EXPECT_TRUE(first->lineMigrated(0, 3));
    EXPECT_EQ(first->dirtyPages, std::vector<std::uint64_t>{1000});
    EXPECT_EQ(plb.find(1000), first);
    for (std::uint64_t i = 0; i < later.size(); ++i) {
        EXPECT_EQ(plb.find(i * 512), later[i]);
        EXPECT_EQ(plb.find(i * 512 + 511), later[i]);
    }
    EXPECT_EQ(plb.find(6000), nullptr);
    EXPECT_EQ(plb.find(6001), odd);
    EXPECT_EQ(plb.find(6004), odd);
    EXPECT_EQ(plb.find(6005), nullptr);

    // Releasing others leaves the survivors where they were.
    plb.release(0);
    plb.release(6001);
    EXPECT_EQ(plb.find(1000), first);
    EXPECT_EQ(plb.find(600), later[1]);
    EXPECT_EQ(plb.find(6002), nullptr);
    EXPECT_EQ(plb.occupancy(), 11u);
}

TEST(Plb, ReleaseUnknownBaseIsNoop)
{
    Plb plb(1);
    plb.release(99);
    EXPECT_EQ(plb.stats().releases, 0u);
}

} // namespace
} // namespace skybyte
