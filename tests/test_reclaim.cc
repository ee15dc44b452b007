/**
 * @file
 * Tests for the active/inactive reclaim lists (§III-C): insertion at the
 * active head, lazy reference bits, activation of touched inactive
 * entries, second chances during aging and victim scans, the anti-thrash
 * idle window, list-ratio rebalancing, and the pinned abl_reclaim
 * sweep (demotion through SsdController::writePageFromHost).
 */

#include <gtest/gtest.h>

#include "core/reclaim.h"
#include "sweep_reference.h"

namespace skybyte {
namespace {

TEST(Reclaim, InsertTracksAndSizes)
{
    ActiveInactiveLists lists;
    lists.insert(1, 0);
    lists.insert(2, 0);
    EXPECT_TRUE(lists.tracked(1));
    EXPECT_TRUE(lists.tracked(2));
    EXPECT_FALSE(lists.tracked(3));
    EXPECT_EQ(lists.size(), 2u);
    EXPECT_EQ(lists.activeSize() + lists.inactiveSize(), 2u);
}

TEST(Reclaim, DuplicateInsertIgnored)
{
    ActiveInactiveLists lists;
    lists.insert(1, 0);
    lists.insert(1, 5);
    EXPECT_EQ(lists.size(), 1u);
}

TEST(Reclaim, RebalanceKeepsActiveBounded)
{
    ActiveInactiveLists lists;
    for (std::uint64_t k = 0; k < 30; ++k)
        lists.insert(k, 0);
    // Linux keeps active roughly <= 2x inactive; our invariant is
    // active <= 2 * (inactive + 1).
    EXPECT_LE(lists.activeSize(), 2 * (lists.inactiveSize() + 1));
    EXPECT_GT(lists.inactiveSize(), 0u);
    EXPECT_GT(lists.stats().deactivations, 0u);
}

TEST(Reclaim, VictimIsOldestUnreferenced)
{
    ActiveInactiveLists lists;
    for (std::uint64_t k = 0; k < 12; ++k)
        lists.insert(k, k);
    std::uint64_t victim = 0;
    ASSERT_TRUE(lists.selectVictim(100, 0, victim));
    // Key 0 was inserted first and never touched: it aged to the
    // inactive tail and is the first victim.
    EXPECT_EQ(victim, 0u);
    EXPECT_FALSE(lists.tracked(0));
    EXPECT_EQ(lists.stats().evictions, 1u);
}

TEST(Reclaim, TouchedInactiveEntryGetsActivated)
{
    ActiveInactiveLists lists;
    for (std::uint64_t k = 0; k < 12; ++k)
        lists.insert(k, k);
    ASSERT_GT(lists.inactiveSize(), 0u);
    // Key 0 is the coldest; touching it must spare it from the next
    // victim scan.
    lists.touch(0, 50);
    std::uint64_t victim = 0;
    ASSERT_TRUE(lists.selectVictim(100, 0, victim));
    EXPECT_NE(victim, 0u);
    EXPECT_TRUE(lists.tracked(0));
    EXPECT_GT(lists.stats().activations, 0u);
}

TEST(Reclaim, ReferencedActiveEntrySurvivesAging)
{
    ActiveInactiveLists lists;
    lists.insert(1, 0);
    lists.touch(1, 1); // sets the lazy referenced bit
    // Push enough entries that key 1 reaches the active tail and is
    // considered for aging; the referenced bit must give it a second
    // chance instead of a deactivation.
    for (std::uint64_t k = 2; k < 20; ++k)
        lists.insert(k, k);
    // Without the referenced bit, key 1 (the oldest) would be the very
    // first victim. The second chance makes it outlive the untouched
    // entries inserted right after it.
    std::uint64_t victim = 0;
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(lists.selectVictim(1000, 0, victim));
        EXPECT_NE(victim, 1u) << "referenced entry evicted first";
    }
    EXPECT_GT(lists.stats().secondChances, 0u);
}

TEST(Reclaim, MinIdleRefusesHotVictims)
{
    ActiveInactiveLists lists;
    for (std::uint64_t k = 0; k < 8; ++k)
        lists.insert(k, 1000);
    std::uint64_t victim = 0;
    // All entries used at t=1000; at t=1100 with a 500-tick idle
    // requirement nothing qualifies.
    EXPECT_FALSE(lists.selectVictim(1100, 500, victim));
    EXPECT_EQ(lists.size(), 8u); // nothing evicted
    // Past the window the coldest entry is released.
    EXPECT_TRUE(lists.selectVictim(2000, 500, victim));
}

TEST(Reclaim, EraseRemovesFromEitherList)
{
    ActiveInactiveLists lists;
    for (std::uint64_t k = 0; k < 12; ++k)
        lists.insert(k, k);
    ASSERT_GT(lists.inactiveSize(), 0u);
    lists.erase(0);  // inactive by now
    lists.erase(11); // most recent: active
    EXPECT_FALSE(lists.tracked(0));
    EXPECT_FALSE(lists.tracked(11));
    EXPECT_EQ(lists.size(), 10u);
}

TEST(Reclaim, VictimScanForcesAgingWhenAllActive)
{
    ActiveInactiveLists lists;
    lists.insert(1, 0);
    lists.insert(2, 1);
    // Both are active (too few entries for rebalance to demote).
    std::uint64_t victim = 0;
    ASSERT_TRUE(lists.selectVictim(100, 0, victim));
    EXPECT_EQ(victim, 1u); // oldest ages out first
}

TEST(Reclaim, EmptyListsHaveNoVictim)
{
    ActiveInactiveLists lists;
    std::uint64_t victim = 0;
    EXPECT_FALSE(lists.selectVictim(0, 0, victim));
}

TEST(Reclaim, TouchUntrackedIsNoop)
{
    ActiveInactiveLists lists;
    lists.touch(42, 0);
    lists.erase(42);
    EXPECT_EQ(lists.size(), 0u);
}

TEST(Reclaim, AblReclaimSweepMatchesCheckedInReference)
{
    // abl_reclaim demotes promoted pages back to the SSD through
    // writePageFromHost under both reclaim policies. At 20,000
    // instructions per thread no point demotes; at 50,000 the bc and
    // ycsb points do.
    expectSweepMatchesReference("abl_reclaim", 50'000);
}

} // namespace
} // namespace skybyte
