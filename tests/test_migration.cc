/**
 * @file
 * Tests for adaptive page migration (§III-C): hot-page promotion flow,
 * PLB capacity, routing changes, functional consistency of the copies,
 * budget-driven demotion with the anti-thrash guard, clean demotions
 * avoiding flash programs, the TPP sampling variant, and the pinned
 * huge-page (two-level PLB) ablation report.
 */

#include <gtest/gtest.h>

#include "core/migration.h"
#include "trace/tenant_map.h"
#include "sweep_reference.h"

namespace skybyte {
namespace {

SimConfig
migConfig(MigrationMechanism mech, std::uint64_t host_pages = 8)
{
    SimConfig cfg;
    cfg.policy.promotionEnable = true;
    cfg.policy.migration = mech;
    cfg.policy.hotPageThreshold = 4;
    cfg.flash.channels = 2;
    cfg.flash.chipsPerChannel = 2;
    cfg.flash.diesPerChip = 2;
    cfg.flash.blocksPerPlane = 4;
    cfg.flash.pagesPerBlock = 16;
    cfg.ssdCache.baseCssdPrefetch = false;
    cfg.hostMem.promotedBytesMax = host_pages * kPageBytes;
    cfg.audit = true; // the tests check line values
    return cfg;
}

struct MigFixture
{
    explicit MigFixture(const SimConfig &config,
                        const TenantMap *tenants = nullptr)
        : cfg(config), link(eq, cfg.cxl), ssd(cfg, eq, link),
          host(eq, cfg.hostDram), engine(cfg, eq, ssd, host, link, tenants)
    {}

    void
    cachePage(std::uint64_t lpn)
    {
        ssd.warmFill(lpn);
    }

    SimConfig cfg;
    EventQueue eq;
    CxlLink link;
    SsdController ssd;
    DramModel host;
    MigrationEngine engine;
};

TEST(Migration, HotCachedPageGetsPromoted)
{
    MigFixture fx(migConfig(MigrationMechanism::SkyByte));
    fx.cachePage(3);
    EXPECT_TRUE(fx.engine.onHotPage(3, 0));
    // While the copy is in flight, reads stay on the SSD DRAM (§III-C).
    EXPECT_EQ(fx.engine.route(3, 0, 0, false), PageHome::Ssd);
    fx.eq.run();
    EXPECT_EQ(fx.engine.stats().promotions, 1u);
    EXPECT_TRUE(fx.engine.isPromoted(3));
    EXPECT_FALSE(fx.ssd.isPageCached(3)); // dropped from SSD DRAM
}

TEST(Migration, UncachedPageRejected)
{
    MigFixture fx(migConfig(MigrationMechanism::SkyByte));
    EXPECT_FALSE(fx.engine.onHotPage(5, 0));
    EXPECT_EQ(fx.engine.stats().rejectedNotCached, 1u);
    EXPECT_EQ(fx.engine.route(5, 0, 0, false), PageHome::Ssd);
}

TEST(Migration, FunctionalCopyPreservesValues)
{
    MigFixture fx(migConfig(MigrationMechanism::SkyByte));
    // Write through the SSD (log + cache) then promote.
    fx.ssd.write(2 * kPageBytes + 6 * kCachelineBytes, 606, 0);
    fx.eq.run();
    fx.cachePage(2);
    ASSERT_TRUE(fx.engine.onHotPage(2, fx.eq.now()));
    fx.eq.run();
    // The host copy must hold the logged value.
    EXPECT_EQ(fx.host.peek(2 * kPageBytes + 6 * kCachelineBytes), 606u);
}

TEST(Migration, PlbCapacityLimitsConcurrentMigrations)
{
    SimConfig cfg = migConfig(MigrationMechanism::SkyByte, 128);
    cfg.hostMem.plbEntries = 2;
    MigFixture fx(cfg);
    for (std::uint64_t lpn = 0; lpn < 3; ++lpn)
        fx.cachePage(lpn);
    EXPECT_TRUE(fx.engine.onHotPage(0, 0));
    EXPECT_TRUE(fx.engine.onHotPage(1, 0));
    EXPECT_FALSE(fx.engine.onHotPage(2, 0)); // PLB full
    EXPECT_EQ(fx.engine.stats().rejectedPlbFull, 1u);
    fx.eq.run();
    EXPECT_TRUE(fx.engine.onHotPage(2, fx.eq.now())); // retry succeeds
}

TEST(Migration, BudgetFullDemotesIdleColdest)
{
    MigFixture fx(migConfig(MigrationMechanism::SkyByte, 2));
    fx.cachePage(0);
    fx.cachePage(1);
    ASSERT_TRUE(fx.engine.onHotPage(0, 0));
    ASSERT_TRUE(fx.engine.onHotPage(1, 0));
    fx.eq.run();
    ASSERT_EQ(fx.engine.promotedPages(), 2u);
    // Both pages are recent: a third promotion must be refused
    // (anti-thrash), not churn.
    fx.cachePage(2);
    EXPECT_FALSE(fx.engine.onHotPage(2, fx.eq.now()));
    EXPECT_EQ(fx.engine.stats().demotions, 0u);
    // After the pages idle past the window, the promotion goes through.
    const Tick later = fx.eq.now() + usToTicks(5'000.0);
    EXPECT_TRUE(fx.engine.onHotPage(2, later));
    EXPECT_EQ(fx.engine.stats().demotions, 1u);
}

TEST(Migration, LruVictimIsExactMinUnderNonMonotonicTouches)
{
    // Cores hand route() their instruction-cursor ticks, which
    // interleave non-monotonically across quanta. The recency list is
    // sorted by lastUse, so the demotion victim must be the region
    // with the smallest lastUse even when it was touched *last* in
    // call order (a move-to-back list would demote the wrong region).
    MigFixture fx(migConfig(MigrationMechanism::SkyByte, 2));
    fx.cachePage(0);
    fx.cachePage(1);
    ASSERT_TRUE(fx.engine.onHotPage(0, 0));
    ASSERT_TRUE(fx.engine.onHotPage(1, 0));
    fx.eq.run();
    ASSERT_EQ(fx.engine.promotedPages(), 2u);
    const Tick t0 = fx.eq.now();
    // Call order: page 1 first with the LATER tick, page 0 second
    // with the EARLIER tick. Exact LRU => page 0 is the victim.
    fx.engine.route(1, 0, t0 + usToTicks(200.0), false);
    fx.engine.route(0, 0, t0 + usToTicks(100.0), false);
    fx.cachePage(2);
    EXPECT_TRUE(fx.engine.onHotPage(
        2, t0 + usToTicks(200.0) + usToTicks(5'000.0)));
    EXPECT_EQ(fx.engine.stats().demotions, 1u);
    EXPECT_FALSE(fx.engine.isPromoted(0));
    EXPECT_TRUE(fx.engine.isPromoted(1));
}

TEST(Migration, CleanDemotionSkipsFlashProgram)
{
    MigFixture fx(migConfig(MigrationMechanism::SkyByte, 1));
    fx.cachePage(0);
    ASSERT_TRUE(fx.engine.onHotPage(0, 0));
    fx.eq.run();
    const std::uint64_t programs_before =
        fx.ssd.ftl().stats().hostPrograms;
    // Page 0 was never written while promoted: demotion is free.
    fx.cachePage(1);
    const Tick later = fx.eq.now() + usToTicks(5'000.0);
    ASSERT_TRUE(fx.engine.onHotPage(1, later));
    fx.eq.run();
    EXPECT_EQ(fx.engine.stats().demotions, 1u);
    EXPECT_EQ(fx.ssd.ftl().stats().hostPrograms, programs_before);
}

TEST(Migration, DirtyDemotionWritesBack)
{
    MigFixture fx(migConfig(MigrationMechanism::SkyByte, 1));
    fx.cachePage(0);
    ASSERT_TRUE(fx.engine.onHotPage(0, 0));
    fx.eq.run();
    // Dirty the promoted page via the host route.
    EXPECT_EQ(fx.engine.route(0, 0, fx.eq.now(), true), PageHome::Host);
    fx.host.poke(0 * kPageBytes, 4242);
    fx.cachePage(1);
    const Tick later = fx.eq.now() + usToTicks(5'000.0);
    ASSERT_TRUE(fx.engine.onHotPage(1, later));
    fx.eq.run();
    EXPECT_EQ(fx.engine.stats().demotions, 1u);
    EXPECT_GT(fx.ssd.ftl().stats().hostPrograms, 0u);
    // The demoted value survived the round trip.
    EXPECT_EQ(fx.ssd.peekLine(0), 4242u);
    EXPECT_EQ(fx.engine.route(0, 0, fx.eq.now(), false), PageHome::Ssd);
}

TEST(Migration, ShootdownHookFires)
{
    MigFixture fx(migConfig(MigrationMechanism::SkyByte));
    int shootdowns = 0;
    fx.engine.setShootdownHook([&](Tick) { shootdowns++; });
    fx.cachePage(4);
    ASSERT_TRUE(fx.engine.onHotPage(4, 0));
    fx.eq.run();
    EXPECT_EQ(shootdowns, 1);
}

TEST(Migration, TppPromotesAfterSampledAccesses)
{
    MigFixture fx(migConfig(MigrationMechanism::Tpp, 16));
    // TPP needs no SSD-cache residency; repeated sampled accesses
    // eventually promote.
    for (int i = 0; i < 2000 && fx.engine.promotedPages() == 0; ++i) {
        fx.engine.onSsdAccess(7, fx.eq.now());
        fx.eq.run();
    }
    EXPECT_GT(fx.engine.stats().promotions, 0u);
    EXPECT_TRUE(fx.engine.isPromoted(7));
}

TEST(Migration, TppIgnoredUnderSkyBytePolicy)
{
    MigFixture fx(migConfig(MigrationMechanism::SkyByte));
    for (int i = 0; i < 2000; ++i)
        fx.engine.onSsdAccess(7, 0);
    EXPECT_EQ(fx.engine.promotedPages(), 0u);
}

TEST(Migration, InflightWritesRoutePerPlbBit)
{
    MigFixture fx(migConfig(MigrationMechanism::SkyByte));
    fx.cachePage(3);
    ASSERT_TRUE(fx.engine.onHotPage(3, 0));
    // Step until the first burst of line copies has landed but the
    // migration has not finished.
    while (fx.engine.plb().stats().lineCopies < 8)
        ASSERT_TRUE(fx.eq.step());
    ASSERT_LT(fx.engine.plb().stats().lineCopies, kLinesPerPage);
    // Line 0 migrated first: a write chases the fresh host copy.
    EXPECT_EQ(fx.engine.route(3, 0, fx.eq.now(), true), PageHome::Host);
    EXPECT_EQ(fx.engine.stats().inflightWriteRedirects, 1u);
    // The last line has not been copied yet: the write stays on the SSD
    // and the later copy of that line will pick it up.
    EXPECT_EQ(fx.engine.route(3, kLinesPerPage - 1, fx.eq.now(), true),
              PageHome::Ssd);
}

TEST(Migration, InflightSsdWriteReachesHostCopy)
{
    MigFixture fx(migConfig(MigrationMechanism::SkyByte));
    fx.cachePage(3);
    ASSERT_TRUE(fx.engine.onHotPage(3, 0));
    while (fx.engine.plb().stats().lineCopies < 8)
        ASSERT_TRUE(fx.eq.step());
    // Route says SSD for the still-unmigrated last line; emulate the
    // write landing there mid-migration.
    const Addr last = 3 * kPageBytes
                      + static_cast<Addr>(kLinesPerPage - 1)
                            * kCachelineBytes;
    ASSERT_EQ(fx.engine.route(3, kLinesPerPage - 1, fx.eq.now(), true),
              PageHome::Ssd);
    fx.ssd.write(last, 9999, fx.eq.now());
    fx.eq.run();
    ASSERT_TRUE(fx.engine.isPromoted(3));
    // The copy of that line happened after the write: value preserved.
    EXPECT_EQ(fx.host.peek(last), 9999u);
}

TEST(Migration, InflightRedirectMarksRegionDirty)
{
    MigFixture fx(migConfig(MigrationMechanism::SkyByte, 1));
    fx.cachePage(0);
    ASSERT_TRUE(fx.engine.onHotPage(0, 0));
    while (fx.engine.plb().stats().lineCopies < 8)
        ASSERT_TRUE(fx.eq.step());
    // Redirected write to an already-migrated line: only the host copy
    // has it, so the region must demote as dirty later.
    ASSERT_EQ(fx.engine.route(0, 0, fx.eq.now(), true), PageHome::Host);
    fx.host.poke(0, 777);
    fx.eq.run();
    ASSERT_TRUE(fx.engine.isPromoted(0));
    const std::uint64_t programs_before =
        fx.ssd.ftl().stats().hostPrograms;
    fx.cachePage(1);
    const Tick later = fx.eq.now() + usToTicks(5'000.0);
    ASSERT_TRUE(fx.engine.onHotPage(1, later));
    fx.eq.run();
    EXPECT_EQ(fx.engine.stats().demotions, 1u);
    EXPECT_GT(fx.ssd.ftl().stats().hostPrograms, programs_before);
    EXPECT_EQ(fx.ssd.peekLine(0), 777u);
}

TEST(Migration, InflightSsdWriteSurvivesLaterDemotion)
{
    // A write landing on the SSD mid-migration reaches the host copy
    // via the line copy, but the SSD drops its own state at migration
    // end — so the region must demote dirty, or the write would be
    // lost when flash serves it again.
    MigFixture fx(migConfig(MigrationMechanism::SkyByte, 1));
    fx.cachePage(0);
    ASSERT_TRUE(fx.engine.onHotPage(0, 0));
    while (fx.engine.plb().stats().lineCopies < 8)
        ASSERT_TRUE(fx.eq.step());
    const Addr last = 0 * kPageBytes
                      + static_cast<Addr>(kLinesPerPage - 1)
                            * kCachelineBytes;
    ASSERT_EQ(fx.engine.route(0, kLinesPerPage - 1, fx.eq.now(), true),
              PageHome::Ssd);
    fx.ssd.write(last, 31337, fx.eq.now());
    fx.eq.run();
    ASSERT_TRUE(fx.engine.isPromoted(0));
    // Displace the region (budget of one page) after it goes idle.
    fx.cachePage(1);
    const Tick later = fx.eq.now() + usToTicks(5'000.0);
    ASSERT_TRUE(fx.engine.onHotPage(1, later));
    fx.eq.run();
    ASSERT_EQ(fx.engine.stats().demotions, 1u);
    ASSERT_FALSE(fx.engine.isPromoted(0));
    // The value written during the migration survived the round trip.
    EXPECT_EQ(fx.ssd.peekLine(last), 31337u);
}

TEST(Migration, HugePageRegionPromotesWhole2MB)
{
    SimConfig cfg = migConfig(MigrationMechanism::SkyByte, 512);
    cfg.hostMem.hugePageBytes = 2 * 1024 * 1024; // §IV default
    MigFixture fx(cfg);
    ASSERT_EQ(fx.engine.regionPages(), 512u);
    fx.cachePage(3); // residency test applies to the hot 4 KB page
    ASSERT_TRUE(fx.engine.onHotPage(3, 0));
    fx.eq.run();
    EXPECT_EQ(fx.engine.stats().promotions, 1u);
    EXPECT_EQ(fx.engine.promotedPages(), 512u);
    EXPECT_TRUE(fx.engine.isPromoted(0));
    EXPECT_TRUE(fx.engine.isPromoted(511));
    EXPECT_FALSE(fx.engine.isPromoted(512));
    // The SSD was told (custom NVMe command, §IV) to drop all chunks.
    EXPECT_EQ(fx.engine.stats().nvmeNotifies, 1u);
    EXPECT_FALSE(fx.ssd.isPageCached(3));
}

TEST(Migration, HugePageFunctionalCopyCoversAllChunks)
{
    SimConfig cfg = migConfig(MigrationMechanism::SkyByte, 8);
    cfg.hostMem.hugePageBytes = 8 * kPageBytes; // small region: fast
    MigFixture fx(cfg);
    ASSERT_EQ(fx.engine.regionPages(), 8u);
    // Scatter values across different chunks of the region.
    fx.ssd.write(0 * kPageBytes + 0 * kCachelineBytes, 100, 0);
    fx.ssd.write(5 * kPageBytes + 9 * kCachelineBytes, 559, 0);
    fx.ssd.write(7 * kPageBytes + 63 * kCachelineBytes, 763, 0);
    fx.eq.run();
    fx.cachePage(5);
    ASSERT_TRUE(fx.engine.onHotPage(5, fx.eq.now()));
    fx.eq.run();
    ASSERT_TRUE(fx.engine.isPromoted(0));
    EXPECT_EQ(fx.host.peek(0 * kPageBytes), 100u);
    EXPECT_EQ(fx.host.peek(5 * kPageBytes + 9 * kCachelineBytes), 559u);
    EXPECT_EQ(fx.host.peek(7 * kPageBytes + 63 * kCachelineBytes), 763u);
}

TEST(Migration, HugePageDemotionWritesBackOnlyDirtyChunks)
{
    SimConfig cfg = migConfig(MigrationMechanism::SkyByte, 8);
    cfg.hostMem.hugePageBytes = 8 * kPageBytes;
    MigFixture fx(cfg);
    fx.cachePage(2);
    ASSERT_TRUE(fx.engine.onHotPage(2, 0));
    fx.eq.run();
    ASSERT_TRUE(fx.engine.isPromoted(0));
    // Dirty exactly one 4 KB page of the promoted region.
    ASSERT_EQ(fx.engine.route(6, 0, fx.eq.now(), true), PageHome::Host);
    fx.host.poke(6 * kPageBytes, 4321);
    const std::uint64_t programs_before =
        fx.ssd.ftl().stats().hostPrograms;
    // Budget is one region: promoting another region forces demotion.
    fx.cachePage(8);
    const Tick later = fx.eq.now() + usToTicks(5'000.0);
    ASSERT_TRUE(fx.engine.onHotPage(8, later));
    fx.eq.run();
    EXPECT_EQ(fx.engine.stats().demotions, 1u);
    // Exactly one page flushed back (clean chunks demote for free).
    EXPECT_EQ(fx.ssd.ftl().stats().hostPrograms, programs_before + 1);
    EXPECT_EQ(fx.ssd.peekLine(6 * kPageBytes), 4321u);
}

TEST(Migration, RejectsHugePagesLargerThanAPlbEntryTracks)
{
    SimConfig cfg = migConfig(MigrationMechanism::SkyByte, 1024);
    cfg.hostMem.hugePageBytes = 4 * 1024 * 1024;
    EXPECT_THROW(MigFixture fx(cfg), std::invalid_argument);
    cfg.hostMem.hugePageBytes = 2 * 1024 * 1024;
    EXPECT_NO_THROW(MigFixture fx(cfg));
}

TEST(Migration, HugePageDemotionWritesBackDirtyPagesAcrossBitmapWords)
{
    SimConfig cfg = migConfig(MigrationMechanism::SkyByte, 512);
    cfg.hostMem.hugePageBytes = 2 * 1024 * 1024;
    MigFixture fx(cfg);
    fx.cachePage(2);
    ASSERT_TRUE(fx.engine.onHotPage(2, 0));
    fx.eq.run();
    ASSERT_TRUE(fx.engine.isPromoted(0));
    // Pages in three different bitmap words, one of them written twice.
    for (std::uint64_t lpn : {511u, 5u, 300u, 5u}) {
        ASSERT_EQ(fx.engine.route(lpn, 0, fx.eq.now(), true),
                  PageHome::Host);
        fx.host.poke(lpn * kPageBytes, 7000 + lpn);
    }
    const std::uint64_t programs_before =
        fx.ssd.ftl().stats().hostPrograms;
    fx.cachePage(512);
    const Tick later = fx.eq.now() + usToTicks(5'000.0);
    ASSERT_TRUE(fx.engine.onHotPage(512, later));
    fx.eq.run();
    EXPECT_EQ(fx.engine.stats().demotions, 1u);
    EXPECT_EQ(fx.ssd.ftl().stats().hostPrograms, programs_before + 3);
    for (std::uint64_t lpn : {5u, 300u, 511u})
        EXPECT_EQ(fx.ssd.peekLine(lpn * kPageBytes), 7000 + lpn) << lpn;
}

TEST(Migration, PinnedRegionNeverPromotesUnderHugePages)
{
    SimConfig cfg = migConfig(MigrationMechanism::SkyByte, 8);
    cfg.hostMem.hugePageBytes = 8 * kPageBytes;
    cfg.hostMem.pinnedDeviceBytes = 8 * kPageBytes; // first region
    MigFixture fx(cfg);
    fx.cachePage(2);
    EXPECT_TRUE(fx.engine.onHotPage(2, 0)); // latched, not migrated
    fx.eq.run();
    EXPECT_EQ(fx.engine.stats().promotions, 0u);
    EXPECT_FALSE(fx.engine.isPromoted(2));
}

TEST(Migration, ActiveInactiveReclaimDemotesColdRegion)
{
    SimConfig cfg = migConfig(MigrationMechanism::SkyByte, 2);
    cfg.hostMem.reclaim = ReclaimPolicy::ActiveInactive;
    MigFixture fx(cfg);
    fx.cachePage(0);
    fx.cachePage(1);
    ASSERT_TRUE(fx.engine.onHotPage(0, 0));
    ASSERT_TRUE(fx.engine.onHotPage(1, 0));
    fx.eq.run();
    ASSERT_EQ(fx.engine.promotedPages(), 2u);
    EXPECT_EQ(fx.engine.reclaimLists().size(), 2u);
    // Keep page 1 hot; page 0 goes cold.
    const Tick later = fx.eq.now() + usToTicks(5'000.0);
    ASSERT_EQ(fx.engine.route(1, 0, later, false), PageHome::Host);
    fx.cachePage(2);
    ASSERT_TRUE(fx.engine.onHotPage(2, later + usToTicks(5'000.0)));
    fx.eq.run();
    EXPECT_EQ(fx.engine.stats().demotions, 1u);
    EXPECT_FALSE(fx.engine.isPromoted(0)); // cold victim
    EXPECT_TRUE(fx.engine.isPromoted(1));
    EXPECT_TRUE(fx.engine.isPromoted(2));
    EXPECT_EQ(fx.engine.reclaimLists().stats().evictions, 1u);
}

TEST(Migration, ReclaimPoliciesAgreeOnObviousVictim)
{
    for (ReclaimPolicy policy :
         {ReclaimPolicy::LruScan, ReclaimPolicy::ActiveInactive}) {
        SimConfig cfg = migConfig(MigrationMechanism::SkyByte, 1);
        cfg.hostMem.reclaim = policy;
        MigFixture fx(cfg);
        fx.cachePage(0);
        ASSERT_TRUE(fx.engine.onHotPage(0, 0));
        fx.eq.run();
        fx.cachePage(1);
        const Tick later = fx.eq.now() + usToTicks(5'000.0);
        ASSERT_TRUE(fx.engine.onHotPage(1, later));
        fx.eq.run();
        EXPECT_TRUE(fx.engine.isPromoted(1));
        EXPECT_FALSE(fx.engine.isPromoted(0));
    }
}

/** Two tenants owning device pages [0,4) and [4,16), no threads. */
TenantMap
twoTenants(double weight0, double weight1)
{
    return TenantMap({0, 4 * kPageBytes}, 16 * kPageBytes, {},
                     {weight0, weight1});
}

TEST(Migration, TenantShareCapsPromotions)
{
    // A three-page host budget split 1:2: tenant 0 may hold one 4 KB
    // region in host DRAM, tenant 1 two.
    SimConfig cfg = migConfig(MigrationMechanism::SkyByte, 3);
    cfg.qos.migrationShare = true;
    const TenantMap tenants = twoTenants(1.0, 2.0);
    MigFixture fx(cfg, &tenants);
    for (std::uint64_t lpn : {0, 1, 4, 5, 6})
        fx.cachePage(static_cast<std::uint64_t>(lpn));
    ASSERT_TRUE(fx.engine.onHotPage(0, 0));
    fx.eq.run();
    EXPECT_EQ(fx.engine.tenantPromotedBytes(0), kPageBytes);
    // Tenant 0 is at its share: the next promotion is refused even
    // though the global host budget has room.
    EXPECT_FALSE(fx.engine.onHotPage(1, fx.eq.now()));
    EXPECT_EQ(fx.engine.stats().rejectedTenantShare, 1u);
    EXPECT_FALSE(fx.engine.isPromoted(1));
    // Tenant 1's share is independent of tenant 0's rejection.
    ASSERT_TRUE(fx.engine.onHotPage(4, fx.eq.now()));
    ASSERT_TRUE(fx.engine.onHotPage(5, fx.eq.now()));
    fx.eq.run();
    EXPECT_EQ(fx.engine.tenantPromotedBytes(1), 2 * kPageBytes);
    EXPECT_FALSE(fx.engine.onHotPage(6, fx.eq.now()));
    EXPECT_EQ(fx.engine.stats().rejectedTenantShare, 2u);
}

TEST(Migration, DemotionReleasesTenantShare)
{
    // A one-page host budget split 1:1 floors each share at one
    // region, so tenant 1's promotion demotes tenant 0's page; the
    // demoted region's bytes must return to tenant 0's share so the
    // cap tracks what is actually resident.
    SimConfig cfg = migConfig(MigrationMechanism::SkyByte, 1);
    cfg.qos.migrationShare = true;
    const TenantMap tenants = twoTenants(1.0, 1.0);
    MigFixture fx(cfg, &tenants);
    fx.cachePage(0);
    ASSERT_TRUE(fx.engine.onHotPage(0, 0));
    fx.eq.run();
    EXPECT_EQ(fx.engine.tenantPromotedBytes(0), kPageBytes);
    fx.cachePage(4);
    const Tick later = fx.eq.now() + usToTicks(5'000.0);
    ASSERT_TRUE(fx.engine.onHotPage(4, later));
    fx.eq.run();
    EXPECT_EQ(fx.engine.stats().demotions, 1u);
    EXPECT_FALSE(fx.engine.isPromoted(0));
    EXPECT_TRUE(fx.engine.isPromoted(4));
    EXPECT_EQ(fx.engine.tenantPromotedBytes(0), 0u);
    EXPECT_EQ(fx.engine.tenantPromotedBytes(1), kPageBytes);
    EXPECT_EQ(fx.engine.stats().rejectedTenantShare, 0u);
}

TEST(Migration, HugePageSweepMatchesCheckedInReference)
{
    // The abl_hugepage sweep promotes 4 KB pages, 64 KB regions and
    // 2 MB huge pages through the two-level PLB.
    expectSweepMatchesReference("abl_hugepage", 20'000);
}

} // namespace
} // namespace skybyte
