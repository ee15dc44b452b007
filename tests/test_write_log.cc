/**
 * @file
 * Unit + property tests for the write log: the two-level index
 * (§III-B, Figure 12), read-your-writes through double buffering,
 * compaction source enumeration, migration invalidation, and the
 * paper's index memory accounting.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "common/rng.h"
#include "core/write_log.h"

namespace skybyte {
namespace {

Addr
addrOf(std::uint64_t page, std::uint32_t off)
{
    return page * kPageBytes + static_cast<Addr>(off) * kCachelineBytes;
}

TEST(WriteLogBuffer, IndexBytesFollowThePaperDoubling)
{
    // One page at every line count: 16 B first level + 4 B per slot,
    // slots starting at 4 and doubling past load factor 0.75.
    WriteLogBuffer buf(1024 * kCachelineBytes);
    for (std::uint32_t lines = 1; lines <= kLinesPerPage; ++lines) {
        buf.append(addrOf(9, lines - 1), lines);
        const std::uint64_t want = lines <= 3    ? 32
                                   : lines <= 6  ? 48
                                   : lines <= 12 ? 80
                                   : lines <= 24 ? 144
                                   : lines <= 48 ? 272
                                                 : 528;
        EXPECT_EQ(buf.indexBytes(), want) << lines << " lines";
        EXPECT_EQ(WriteLogBuffer::pageIndexBytes(lines), want) << lines;
    }
}

TEST(WriteLogBuffer, AppendLookupSupersede)
{
    WriteLogBuffer buf(1024 * kCachelineBytes);
    EXPECT_FALSE(buf.append(addrOf(1, 3), 10));
    EXPECT_TRUE(buf.append(addrOf(1, 3), 20)); // superseded
    ASSERT_TRUE(buf.lookup(addrOf(1, 3)).has_value());
    EXPECT_EQ(*buf.lookup(addrOf(1, 3)), 20u);
    EXPECT_EQ(buf.size(), 2u); // both entries consumed log slots
}

TEST(WriteLogBuffer, FullAtCapacity)
{
    WriteLogBuffer buf(8 * kCachelineBytes);
    for (std::uint64_t i = 0; i < 8; ++i)
        buf.append(addrOf(i, 0), i);
    EXPECT_TRUE(buf.full());
}

TEST(WriteLogBuffer, InvalidatePageDropsOnlyThatPage)
{
    WriteLogBuffer buf(1024 * kCachelineBytes);
    buf.append(addrOf(1, 0), 1);
    buf.append(addrOf(1, 1), 2);
    buf.append(addrOf(2, 0), 3);
    EXPECT_EQ(buf.invalidatePage(1), 2u);
    EXPECT_FALSE(buf.lookup(addrOf(1, 0)).has_value());
    EXPECT_TRUE(buf.lookup(addrOf(2, 0)).has_value());
}

TEST(WriteLogBuffer, ProbesPastTheTableEndReadAsAbsent)
{
    // The first level grows only on append: a page far past any logged
    // one reads as absent, and growing to it would throw.
    constexpr std::uint64_t kFar = 1ULL << 44;
    WriteLogBuffer buf(1024 * kCachelineBytes);
    buf.append(addrOf(3, 0), 1);
    EXPECT_FALSE(buf.lookup(addrOf(4, 0)).has_value());
    EXPECT_FALSE(buf.lookup(addrOf(kFar, 0)).has_value());
    EXPECT_FALSE(buf.lookup(addrOf(kFar, 5)).has_value());
    EXPECT_EQ(buf.mergePageInto(kFar, nullptr), 0u);
    EXPECT_EQ(buf.invalidatePage(kFar), 0u);
    EXPECT_EQ(buf.pageCount(), 1u);
    EXPECT_EQ(buf.indexBytes(), 32u);
    EXPECT_EQ(buf.lookup(addrOf(3, 0)), std::optional<LineValue>(1));
}

TEST(WriteLogBuffer, IndexBytesAccounting)
{
    WriteLogBuffer buf(1024 * kCachelineBytes);
    EXPECT_EQ(buf.indexBytes(), 0u);
    buf.append(addrOf(42, 0), 1);
    // One first-level entry (16 B) + one 4-entry second-level (16 B).
    EXPECT_EQ(buf.indexBytes(), 32u);
    // Filling the page forces second-level growth to 128 slots.
    for (std::uint32_t off = 0; off < kLinesPerPage; ++off)
        buf.append(addrOf(42, off), off);
    EXPECT_EQ(buf.indexBytes(), 528u);
}

TEST(WriteLog, DoubleBufferingReadYourWrites)
{
    WriteLog log(8 * kCachelineBytes);
    for (std::uint64_t i = 0; i < 8; ++i)
        log.append(addrOf(i, 0), i + 100);
    ASSERT_TRUE(log.needCompaction());
    WriteLogBuffer &draining = log.beginCompaction();
    EXPECT_EQ(draining.size(), 8u);
    // New writes land in the fresh buffer; old ones remain visible.
    log.append(addrOf(0, 1), 999);
    EXPECT_EQ(*log.lookup(addrOf(0, 1)), 999u);
    EXPECT_EQ(*log.lookup(addrOf(3, 0)), 103u);
    // gatherDraining only exposes the draining buffer.
    EXPECT_EQ(log.gatherDraining(3, nullptr), 1u);
    EXPECT_EQ(log.gatherDraining(0, nullptr), 1u); // line 0, not line 1
    log.finishCompaction();
    EXPECT_FALSE(log.lookup(addrOf(3, 0)).has_value());
    EXPECT_EQ(*log.lookup(addrOf(0, 1)), 999u);
}

TEST(WriteLog, ActiveValueShadowsDraining)
{
    WriteLog log(4 * kCachelineBytes);
    for (std::uint64_t i = 0; i < 4; ++i)
        log.append(addrOf(7, static_cast<std::uint32_t>(i)), i);
    log.beginCompaction();
    log.append(addrOf(7, 0), 777); // newer than the draining copy
    EXPECT_EQ(*log.lookup(addrOf(7, 0)), 777u);
}

TEST(WriteLog, OverflowCountedNotDropped)
{
    WriteLog log(4 * kCachelineBytes);
    for (std::uint64_t i = 0; i < 4; ++i)
        log.append(addrOf(i, 0), i);
    log.beginCompaction();
    // Fill the new active buffer and keep going: appends must not block.
    for (std::uint64_t i = 0; i < 6; ++i)
        log.append(addrOf(100 + i, 0), i);
    EXPECT_GT(log.stats().overflowAppends, 0u);
    EXPECT_TRUE(log.lookup(addrOf(105, 0)).has_value());
}

TEST(WriteLog, StatsTrackUpdatesAndCompactions)
{
    WriteLog log(16 * kCachelineBytes);
    log.append(addrOf(1, 1), 1);
    log.append(addrOf(1, 1), 2);
    EXPECT_EQ(log.stats().appends, 2u);
    EXPECT_EQ(log.stats().updateHits, 1u);
    EXPECT_GT(log.stats().indexBytesPeak, 0u);
}

/** Property: the log agrees with a reference map under random traffic. */
class WriteLogProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(WriteLogProperty, MatchesReferenceMap)
{
    Rng rng(GetParam());
    WriteLog log(256 * kCachelineBytes);
    std::map<Addr, LineValue> ref;
    for (int i = 0; i < 4000; ++i) {
        const Addr a = addrOf(rng.below(32), static_cast<std::uint32_t>(
                                                 rng.below(64)));
        const LineValue v = rng.next();
        log.append(a, v);
        ref[a] = v;
        if (rng.below(32) == 0) {
            // A migrated page: its lines drop out of both buffers.
            const std::uint64_t page = rng.below(32);
            log.invalidatePage(page);
            std::erase_if(ref, [page](const auto &kv) {
                return pageNumber(kv.first) == page;
            });
        }
        if (log.needCompaction()) {
            // Emulate the controller: drain everything synchronously,
            // removing drained values from the reference visibility only
            // after finish (they would land in flash).
            log.beginCompaction();
            log.finishCompaction();
            // After compaction the drained values are gone from the
            // log; rebuild ref from what is still logged.
            std::map<Addr, LineValue> still;
            for (const auto &[addr, val] : ref) {
                if (auto lv = log.lookup(addr))
                    still[addr] = *lv;
            }
            ref = still;
        }
        // Spot-check a random address.
        const Addr probe = addrOf(rng.below(32),
                                  static_cast<std::uint32_t>(
                                      rng.below(64)));
        auto got = log.lookup(probe);
        auto want = ref.find(probe);
        if (want == ref.end()) {
            EXPECT_FALSE(got.has_value());
        } else {
            ASSERT_TRUE(got.has_value());
            EXPECT_EQ(*got, want->second);
        }
    }
}

TEST_P(WriteLogProperty, IncrementalIndexBytesMatchesRecomputation)
{
    // The per-append peak tracking reads indexBytes() on every logged
    // write, so it is maintained incrementally; this pins it to the
    // from-scratch walk across random append / invalidate / compaction
    // sequences in both buffers.
    Rng rng(GetParam() ^ 0xacc01a7ULL);
    WriteLog log(128 * kCachelineBytes);
    auto check = [&log] {
        ASSERT_EQ(log.activeBuffer().indexBytes(),
                  log.activeBuffer().indexBytesRecomputed());
        ASSERT_EQ(log.standbyBuffer().indexBytes(),
                  log.standbyBuffer().indexBytesRecomputed());
        ASSERT_EQ(log.indexBytes(),
                  log.activeBuffer().indexBytesRecomputed()
                      + log.standbyBuffer().indexBytesRecomputed());
    };
    for (int i = 0; i < 6000; ++i) {
        const std::uint64_t op = rng.below(100);
        if (op < 80) {
            log.append(addrOf(rng.below(24),
                              static_cast<std::uint32_t>(rng.below(64))),
                       rng.next());
        } else if (op < 95) {
            log.invalidatePage(rng.below(24));
        } else if (log.needCompaction()) {
            log.beginCompaction();
            check();
            log.finishCompaction();
        }
        check();
        if (log.needCompaction() && rng.chance(0.5)) {
            log.beginCompaction();
            log.finishCompaction();
            check();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WriteLogProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(WriteLog, TenantQuotaTripsAndClearsWithCompaction)
{
    WriteLog log(8 * kCachelineBytes);
    log.setTenantQuotas({2, 100});
    EXPECT_FALSE(log.overQuota(0));
    log.append(addrOf(0, 0), 1, 0);
    EXPECT_FALSE(log.overQuota(0));
    log.append(addrOf(0, 1), 2, 0);
    EXPECT_TRUE(log.overQuota(0)); // live entries == quota trips it
    EXPECT_FALSE(log.overQuota(1));
    EXPECT_EQ(log.tenantLiveEntries(0), 2u);
    // Unattributed appends (tenant -1) count against no one, and an
    // out-of-range tenant is never over quota.
    log.append(addrOf(1, 0), 3);
    EXPECT_EQ(log.tenantLiveEntries(0), 2u);
    EXPECT_EQ(log.tenantLiveEntries(1), 0u);
    EXPECT_FALSE(log.overQuota(7));
    // Fill the active buffer: the swap moves tenant 0's entries to the
    // draining buffer, where they still count until the drain ends.
    for (std::uint32_t off = 0; !log.needCompaction(); ++off)
        log.append(addrOf(2, off), off, 1);
    log.beginCompaction();
    EXPECT_TRUE(log.overQuota(0));
    log.finishCompaction();
    EXPECT_FALSE(log.overQuota(0)); // drained entries released
    EXPECT_EQ(log.tenantLiveEntries(0), 0u);
}

} // namespace
} // namespace skybyte
