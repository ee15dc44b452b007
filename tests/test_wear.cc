/**
 * @file
 * Tests for FTL wear accounting and wear-aware block allocation: erase
 * counts track GC erases exactly, write amplification is computed from
 * host vs relocated programs, the wear summary is internally coherent,
 * and least-erased allocation bounds the P/E spread under a skewed
 * rewrite stream that LIFO free-list reuse keeps hammering.
 */

#include <gtest/gtest.h>

#include "ssd/ftl.h"

namespace skybyte {
namespace {

FlashConfig
smallFlash(bool wear_aware)
{
    FlashConfig cfg;
    cfg.channels = 1;
    cfg.chipsPerChannel = 2;
    cfg.diesPerChip = 2;
    cfg.blocksPerPlane = 8; // 32 blocks total on the channel
    cfg.pagesPerBlock = 8;
    cfg.wearAwareAllocation = wear_aware;
    return cfg;
}

/** Rewrite a small hot set until GC has erased many blocks. */
std::uint64_t
hammer(Ftl &ftl, EventQueue &eq, std::uint64_t hot_pages,
       std::uint64_t writes)
{
    PageData data{};
    Tick t = 0;
    for (std::uint64_t i = 0; i < writes; ++i) {
        ftl.writePage(i % hot_pages, t, &data, nullptr);
        eq.run();
        t = eq.now();
    }
    return ftl.stats().gcErases;
}

TEST(Wear, EraseCountsMatchGcErases)
{
    EventQueue eq;
    Ftl ftl(smallFlash(false), eq, 1);
    const std::uint64_t erases = hammer(ftl, eq, 16, 1500);
    ASSERT_GT(erases, 0u) << "workload too small to trigger GC";
    const Ftl::WearSummary w = ftl.wearSummary();
    // The mean wear times the block count equals the total erases.
    const double blocks = 32.0;
    EXPECT_NEAR(w.meanErase * blocks, static_cast<double>(erases),
                0.5);
    EXPECT_LE(w.minErase, w.maxErase);
    EXPECT_GE(w.meanErase, static_cast<double>(w.minErase));
    EXPECT_LE(w.meanErase, static_cast<double>(w.maxErase));
}

TEST(Wear, WriteAmplificationAtLeastOneAndGrowsWithGc)
{
    EventQueue eq;
    Ftl ftl(smallFlash(false), eq, 1);
    EXPECT_DOUBLE_EQ(ftl.writeAmplification(), 1.0); // nothing written
    hammer(ftl, eq, 16, 200); // small: likely little GC yet
    const double early = ftl.writeAmplification();
    EXPECT_GE(early, 1.0);
    hammer(ftl, eq, 16, 2000);
    const double late = ftl.writeAmplification();
    EXPECT_GE(late, early - 1e-9);
    // Relocations happened, so amplification is strictly above 1.
    if (ftl.stats().gcPageMoves > 0) {
        EXPECT_GT(late, 1.0);
    }
}

TEST(Wear, FreshDeviceHasZeroWear)
{
    EventQueue eq;
    Ftl ftl(smallFlash(false), eq, 1);
    const Ftl::WearSummary w = ftl.wearSummary();
    EXPECT_EQ(w.minErase, 0u);
    EXPECT_EQ(w.maxErase, 0u);
    EXPECT_DOUBLE_EQ(w.meanErase, 0.0);
    EXPECT_EQ(w.spread(), 0u);
}

TEST(Wear, WearAwareAllocationBoundsTheSpread)
{
    // Same skewed stream on both policies. LIFO reuse recycles the
    // most recently erased block immediately; least-erased allocation
    // spreads the erases across the whole channel.
    EventQueue eq_lifo;
    Ftl lifo(smallFlash(false), eq_lifo, 1);
    hammer(lifo, eq_lifo, 16, 4000);

    EventQueue eq_wear;
    Ftl wear(smallFlash(true), eq_wear, 1);
    hammer(wear, eq_wear, 16, 4000);

    ASSERT_GT(lifo.stats().gcErases, 0u);
    ASSERT_GT(wear.stats().gcErases, 0u);
    EXPECT_LE(wear.wearSummary().spread(),
              lifo.wearSummary().spread());
    EXPECT_EQ(lifo.audit(), "");
    EXPECT_EQ(wear.audit(), "");
    // And wear leveling does not change how much work was done.
    EXPECT_EQ(lifo.stats().hostPrograms, wear.stats().hostPrograms);
}

TEST(Wear, FunctionalDataSurvivesWearLeveling)
{
    EventQueue eq;
    Ftl ftl(smallFlash(true), eq, 1);
    PageData data{};
    // Tag each hot page with a distinct value, churn, verify.
    for (std::uint64_t round = 0; round < 120; ++round) {
        for (std::uint64_t lpn = 0; lpn < 16; ++lpn) {
            data[0] = round * 100 + lpn;
            ftl.writePage(lpn, eq.now(), &data, nullptr);
            eq.run();
        }
    }
    for (std::uint64_t lpn = 0; lpn < 16; ++lpn)
        EXPECT_EQ(ftl.pageData(lpn)[0], 119 * 100 + lpn);
}

} // namespace
} // namespace skybyte
