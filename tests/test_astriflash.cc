/**
 * @file
 * Tests for the AstriFlash-CXL baseline (§VI-H): host page cache
 * hits/misses, page-granular SSD fills, dirty writebacks, user-level
 * switch hints, functional integrity through the host cache, and the
 * pinned fig23 sweep (AstriFlash-CXL and the TPP variants).
 */

#include <gtest/gtest.h>

#include "core/astriflash.h"
#include "sweep_reference.h"

namespace skybyte {
namespace {

SimConfig
astriConfig(bool switching, std::uint64_t host_pages = 8)
{
    SimConfig cfg;
    cfg.policy.promotionEnable = true;
    cfg.policy.migration = MigrationMechanism::AstriFlash;
    cfg.policy.deviceTriggeredCtxSwitch = switching;
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

struct AstriFixture
{
    explicit AstriFixture(const SimConfig &config)
        : cfg(config), link(eq, cfg.cxl), ssd(cfg, eq, link),
          host(eq, cfg.hostDram), astri(cfg, eq, ssd, host)
    {}

    MemResponse
    readSync(Addr addr)
    {
        MemResponse out;
        bool done = false;
        astri.read(addr, eq.now(), [&](const MemResponse &r) {
            out = r;
            done = true;
        });
        while (!done && eq.step()) {
        }
        return out;
    }

    SimConfig cfg;
    EventQueue eq;
    CxlLink link;
    SsdController ssd;
    DramModel host;
    AstriFlashCache astri;
};

TEST(AstriFlash, MissFillsFromSsdThenHits)
{
    AstriFixture fx(astriConfig(false));
    const MemResponse r1 = fx.readSync(0);
    EXPECT_EQ(r1.kind, MemResponseKind::Data);
    EXPECT_EQ(fx.astri.stats().hostMisses, 1u);
    EXPECT_EQ(fx.astri.stats().pageFills, 1u);
    const MemResponse r2 = fx.readSync(kCachelineBytes);
    EXPECT_EQ(r2.kind, MemResponseKind::Data);
    EXPECT_EQ(fx.astri.stats().hostHits, 1u);
}

TEST(AstriFlash, MissEmitsUserSwitchHintWhenEnabled)
{
    AstriFixture fx(astriConfig(true));
    const MemResponse r = fx.readSync(0);
    EXPECT_EQ(r.kind, MemResponseKind::DelayHint);
    EXPECT_EQ(fx.astri.stats().userSwitchHints, 1u);
    // Fill completes in the background; the replay hits host DRAM.
    fx.eq.run();
    const MemResponse r2 = fx.readSync(0);
    EXPECT_EQ(r2.kind, MemResponseKind::Data);
}

TEST(AstriFlash, WriteAllocatesAndMergesIntoFill)
{
    AstriFixture fx(astriConfig(false));
    fx.astri.write(3 * kPageBytes + 2 * kCachelineBytes, 321, 0);
    fx.eq.run();
    const MemResponse r =
        fx.readSync(3 * kPageBytes + 2 * kCachelineBytes);
    EXPECT_EQ(r.value, 321u);
}

TEST(AstriFlash, DirtyEvictionWritesWholePageToSsd)
{
    AstriFixture fx(astriConfig(false, 2)); // 2-page host cache
    fx.astri.write(0, 111, 0);
    fx.eq.run();
    // Evict page 0 with read traffic.
    for (std::uint64_t lpn = 1; lpn < 12; ++lpn) {
        fx.readSync(lpn * kPageBytes);
        fx.eq.run();
    }
    EXPECT_GT(fx.astri.stats().dirtyWritebacks, 0u);
    // Value survived in the SSD.
    EXPECT_EQ(fx.astri.peekLine(0), 111u);
}

TEST(AstriFlash, SsdSeesOnlyPageGranularTraffic)
{
    AstriFixture fx(astriConfig(false));
    fx.readSync(5 * kPageBytes);
    fx.astri.write(5 * kPageBytes, 9, fx.eq.now());
    fx.eq.run();
    // No cacheline-level SSD reads/writes happened.
    EXPECT_EQ(fx.ssd.stats().writes, 0u);
    EXPECT_EQ(fx.ssd.stats().readHitsLog, 0u);
}

TEST(AstriFlash, Fig23SweepMatchesCheckedInReference)
{
    // fig23 runs AstriFlash-CXL and the TPP variants SkyByte-CT/WCT,
    // the page-granular host paths no other reference reaches.
    expectSweepMatchesReference("fig23", 20'000);
}

} // namespace
} // namespace skybyte
