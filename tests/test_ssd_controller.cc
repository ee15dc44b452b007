/**
 * @file
 * Tests for the SSD controller: the full read/write paths of Figure 11
 * (R1-R3, W1-W3), SkyByte-Delay hint decisions (Algorithm 1), log
 * compaction with write coalescing (Figure 13), Base-CSSD
 * read-modify-write and dirty evictions, and functional read-your-write
 * integrity in both modes.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"
#include "core/ssd_controller.h"

namespace skybyte {
namespace {

SimConfig
deviceConfig(bool write_log, bool ctx_switch)
{
    SimConfig cfg;
    cfg.policy.writeLogEnable = write_log;
    cfg.policy.deviceTriggeredCtxSwitch = ctx_switch;
    cfg.flash.channels = 2;
    cfg.flash.chipsPerChannel = 2;
    cfg.flash.diesPerChip = 2;
    cfg.flash.blocksPerPlane = 4;
    cfg.flash.pagesPerBlock = 16;
    cfg.ssdCache.writeLogBytes = 16 * kCachelineBytes;
    cfg.ssdCache.dataCacheBytes = 8 * kPageBytes;
    cfg.ssdCache.baseCssdPrefetch = false; // determinism in unit tests
    cfg.audit = true; // the tests check line values
    return cfg;
}

struct Device
{
    explicit Device(const SimConfig &config)
        : cfg(config), link(eq, cfg.cxl), ssd(cfg, eq, link)
    {}

    /** Blocking read helper: runs the queue until the response. */
    MemResponse
    readSync(Addr addr)
    {
        MemResponse out;
        bool done = false;
        ssd.read(addr, eq.now(), [&](const MemResponse &r) {
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
};

TEST(SsdController, ReadMissFetchesFromFlash)
{
    Device dev(deviceConfig(true, false));
    const MemResponse r = dev.readSync(0);
    EXPECT_EQ(r.kind, MemResponseKind::Data);
    EXPECT_EQ(dev.ssd.stats().readMisses, 1u);
    // Latency must include the flash read (>= 3 us).
    EXPECT_GT(dev.eq.now(), usToTicks(3.0));
}

TEST(SsdController, SecondReadHitsDataCache)
{
    Device dev(deviceConfig(true, false));
    dev.readSync(0);
    const Tick before = dev.eq.now();
    dev.readSync(kCachelineBytes); // same page, different line
    EXPECT_EQ(dev.ssd.stats().readHitsCache, 1u);
    EXPECT_LT(dev.eq.now() - before, usToTicks(1.0));
}

TEST(SsdController, WriteLogReadYourWrite)
{
    Device dev(deviceConfig(true, false));
    dev.ssd.write(5 * kPageBytes + 2 * kCachelineBytes, 999, 0);
    dev.eq.run();
    const MemResponse r =
        dev.readSync(5 * kPageBytes + 2 * kCachelineBytes);
    EXPECT_EQ(r.value, 999u);
    EXPECT_EQ(dev.ssd.stats().readHitsLog, 1u);
    EXPECT_EQ(dev.ssd.stats().writes, 1u);
}

TEST(SsdController, LogValueShadowsStaleCachedPage)
{
    Device dev(deviceConfig(true, false));
    dev.readSync(7 * kPageBytes); // page cached (all zeros)
    dev.ssd.write(7 * kPageBytes, 31337, dev.eq.now());
    dev.eq.run();
    const MemResponse r = dev.readSync(7 * kPageBytes);
    EXPECT_EQ(r.value, 31337u);
}

TEST(SsdController, CompactionCoalescesAndPreservesData)
{
    Device dev(deviceConfig(true, false));
    // 16-entry log: write the same line 16 times -> compaction flushes
    // exactly one page despite 16 appends.
    for (int i = 0; i < 16; ++i) {
        dev.ssd.write(3 * kPageBytes, 1000 + i, dev.eq.now());
        dev.eq.run();
    }
    dev.eq.run();
    EXPECT_EQ(dev.ssd.stats().compactionRuns, 1u);
    EXPECT_EQ(dev.ssd.stats().compactionPagesFlushed, 1u);
    EXPECT_EQ(dev.ssd.writeLog()->stats().updateHits, 15u);
    // The flash copy holds the newest value.
    EXPECT_EQ(dev.ssd.ftl().pageData(3)[0], 1015u);
    const MemResponse r = dev.readSync(3 * kPageBytes);
    EXPECT_EQ(r.value, 1015u);
}

TEST(SsdController, CompactionFullyDirtyPageSkipsFlashRead)
{
    Device dev(deviceConfig(true, false));
    SimConfig cfg = deviceConfig(true, false);
    cfg.ssdCache.writeLogBytes = 64 * kCachelineBytes;
    cfg.ssdCache.dataCacheBytes = 2 * kPageBytes; // page won't be cached
    Device dev2(cfg);
    // Dirty every line of one page not resident in the tiny cache.
    for (std::uint32_t off = 0; off < kLinesPerPage; ++off) {
        dev2.ssd.write(11 * kPageBytes + off * kCachelineBytes, off,
                       dev2.eq.now());
        dev2.eq.run();
    }
    dev2.eq.run();
    EXPECT_EQ(dev2.ssd.stats().compactionRuns, 1u);
    EXPECT_EQ(dev2.ssd.stats().compactionFlashReads, 0u);
    EXPECT_EQ(dev2.ssd.ftl().pageData(11)[63], 63u);
}

TEST(SsdController, BaseCssdWriteMissDoesRmw)
{
    Device dev(deviceConfig(false, false));
    dev.ssd.write(9 * kPageBytes, 55, 0);
    dev.eq.run();
    EXPECT_EQ(dev.ssd.stats().rmwFetches, 1u);
    // After the RMW fetch, the write is in the cached page.
    const MemResponse r = dev.readSync(9 * kPageBytes);
    EXPECT_EQ(r.value, 55u);
}

TEST(SsdController, BaseCssdWritesDuringFetchLeaveTheLaterValue)
{
    // Both writes wait on the one RMW fetch and apply in issue order.
    Device dev(deviceConfig(false, false));
    const Addr line = 9 * kPageBytes + 3 * kCachelineBytes;
    dev.ssd.write(line, 1, 0);
    dev.ssd.write(line, 2, 0);
    EXPECT_EQ(dev.ssd.fetchesInFlight(), 1u);
    dev.eq.run();
    EXPECT_EQ(dev.ssd.stats().rmwFetches, 1u);
    EXPECT_EQ(dev.ssd.peekLine(line), 2u);
    EXPECT_EQ(dev.readSync(line).value, 2u);
}

TEST(SsdController, ReadsOfAFetchingPageCompleteInIssueOrder)
{
    Device dev(deviceConfig(false, false));
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
        const Addr line =
            9 * kPageBytes + static_cast<Addr>(i) * kCachelineBytes;
        dev.ssd.read(line, 0, [&order, i](const MemResponse &r) {
            EXPECT_EQ(r.kind, MemResponseKind::Data);
            order.push_back(i);
        });
    }
    EXPECT_EQ(dev.ssd.fetchesInFlight(), 1u);
    dev.eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SsdController, BaseCssdDirtyEvictionPrograms)
{
    SimConfig cfg = deviceConfig(false, false);
    cfg.ssdCache.dataCacheBytes = 2 * kPageBytes; // 2-page cache
    cfg.ssdCache.dataCacheWays = 2;
    Device dev(cfg);
    dev.ssd.write(1 * kPageBytes, 7, 0);
    dev.eq.run();
    // Evict page 1 by filling the cache with reads.
    for (std::uint64_t lpn = 2; lpn < 8; ++lpn)
        dev.readSync(lpn * kPageBytes);
    dev.eq.run();
    EXPECT_GT(dev.ssd.stats().dirtyEvictions, 0u);
    EXPECT_GT(dev.ssd.ftl().stats().hostPrograms, 0u);
    // Data survives the round trip through flash.
    const MemResponse r = dev.readSync(1 * kPageBytes);
    EXPECT_EQ(r.value, 7u);
}

TEST(SsdController, ColdMissHintsWhenSwitchingEnabled)
{
    // Flash read (~4 us) exceeds the 2 us threshold: hint expected.
    Device dev(deviceConfig(true, true));
    const MemResponse r = dev.readSync(0);
    EXPECT_EQ(r.kind, MemResponseKind::DelayHint);
    EXPECT_EQ(dev.ssd.stats().delayHintsSent, 1u);
    // The page fetch continues in the background; a later read hits.
    dev.eq.run();
    const MemResponse r2 = dev.readSync(0);
    EXPECT_EQ(r2.kind, MemResponseKind::Data);
}

TEST(SsdController, NoHintWhenSwitchingDisabled)
{
    Device dev(deviceConfig(true, false));
    const MemResponse r = dev.readSync(0);
    EXPECT_EQ(r.kind, MemResponseKind::Data);
    EXPECT_EQ(dev.ssd.stats().delayHintsSent, 0u);
}

TEST(SsdController, HighThresholdSuppressesHints)
{
    SimConfig cfg = deviceConfig(true, true);
    cfg.policy.csThreshold = usToTicks(80.0);
    Device dev(cfg);
    const MemResponse r = dev.readSync(0);
    EXPECT_EQ(r.kind, MemResponseKind::Data);
}

TEST(SsdController, WritesNeverHint)
{
    Device dev(deviceConfig(true, true));
    dev.ssd.write(0, 1, 0); // would miss; must not produce a hint
    dev.eq.run();
    EXPECT_EQ(dev.ssd.stats().delayHintsSent, 0u);
}

TEST(SsdController, MigrationDropInvalidatesLogAndCache)
{
    Device dev(deviceConfig(true, false));
    dev.readSync(4 * kPageBytes);
    dev.ssd.write(4 * kPageBytes, 77, dev.eq.now());
    dev.eq.run();
    PageData snap = dev.ssd.snapshotPage(4);
    EXPECT_EQ(snap[0], 77u);
    dev.ssd.dropMigratedPage(4);
    EXPECT_FALSE(dev.ssd.isPageCached(4));
    EXPECT_FALSE(dev.ssd.writeLog()->lookup(4 * kPageBytes).has_value());
}

TEST(SsdController, PrefetchProbePastTheFetchTableReadsAbsent)
{
    // Base-CSSD's sequential prefetch probes lpn + 1, one past the
    // highest page the fetch table has grown to.
    SimConfig cfg = deviceConfig(false, false);
    cfg.ssdCache.baseCssdPrefetch = true;
    Device dev(cfg);
    dev.ssd.read(5 * kPageBytes, 0, [](const MemResponse &) {});
    EXPECT_EQ(dev.ssd.stats().prefetches, 1u);
    EXPECT_EQ(dev.ssd.fetchesInFlight(), 2u);
    dev.eq.run();
    EXPECT_EQ(dev.ssd.fetchesInFlight(), 0u);
    EXPECT_TRUE(dev.ssd.isPageCached(6));
    // At the device's last page there is nothing to prefetch.
    const std::uint64_t last = cfg.flash.totalBytes() / kPageBytes - 1;
    dev.readSync(last * kPageBytes);
    EXPECT_EQ(dev.ssd.stats().prefetches, 1u);
    EXPECT_FALSE(dev.ssd.isPageCached(last + 1));
}

TEST(SsdController, HostPageOpsOnUntouchedPagesGrowNoTable)
{
    // Migration drops and host page writes reset the page's counter and
    // log entries; on a page no table has reached they must be no-ops.
    // A page this far out would throw if any table grew to it.
    constexpr std::uint64_t kFar = 1ULL << 44;
    Device dev(deviceConfig(true, false));
    dev.ssd.write(2 * kPageBytes, 9, 0);
    dev.ssd.dropMigratedPage(kFar);
    const std::uint64_t untouched =
        dev.cfg.flash.totalBytes() / kPageBytes - 1;
    dev.ssd.writePageFromHost(untouched, nullptr, 0);
    dev.eq.run();
    EXPECT_EQ(dev.ssd.writeLog()->activeBuffer().pageCount(), 1u);
    EXPECT_EQ(dev.ssd.peekLine(2 * kPageBytes), 9u);
    EXPECT_FALSE(dev.ssd.isPageCached(kFar));
}

TEST(SsdController, PageInterfaceRoundTrip)
{
    Device dev(deviceConfig(false, false));
    PageData data{};
    data[5] = 505;
    dev.ssd.writePageFromHost(6, &data, 0);
    dev.eq.run();
    PageData got{};
    bool done = false;
    dev.ssd.readPageToHost(6, dev.eq.now(), [&](Tick) {
        got = dev.ssd.snapshotPage(6);
        done = true;
    });
    while (!done && dev.eq.step()) {
    }
    EXPECT_EQ(got[5], 505u);
}

TEST(SsdController, WarmFillMakesPageHitWithoutFlashOps)
{
    Device dev(deviceConfig(true, false));
    dev.ssd.warmFill(12);
    EXPECT_TRUE(dev.ssd.isPageCached(12));
    EXPECT_EQ(dev.ssd.ftl().totalReads(), 0u);
    dev.readSync(12 * kPageBytes);
    EXPECT_EQ(dev.ssd.stats().readHitsCache, 1u);
}

/** Property: controller returns the latest written value (both modes). */
class SsdIntegrity
    : public ::testing::TestWithParam<std::pair<bool, std::uint64_t>>
{};

TEST_P(SsdIntegrity, ReadYourWritesUnderRandomTraffic)
{
    const auto [write_log, seed] = GetParam();
    Device dev(deviceConfig(write_log, false));
    Rng rng(seed);
    std::map<Addr, LineValue> ref;
    for (int i = 0; i < 600; ++i) {
        const Addr addr = rng.below(16) * kPageBytes
                          + rng.below(kLinesPerPage) * kCachelineBytes;
        if (rng.chance(0.5)) {
            const LineValue v = rng.next() | 1;
            dev.ssd.write(addr, v, dev.eq.now());
            dev.eq.run();
            ref[addr] = v;
        } else {
            const MemResponse r = dev.readSync(addr);
            auto it = ref.find(addr);
            EXPECT_EQ(r.value, it == ref.end() ? 0u : it->second)
                << "addr " << std::hex << addr;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SsdIntegrity,
    ::testing::Values(std::pair<bool, std::uint64_t>{true, 1},
                      std::pair<bool, std::uint64_t>{true, 2},
                      std::pair<bool, std::uint64_t>{true, 3},
                      std::pair<bool, std::uint64_t>{false, 1},
                      std::pair<bool, std::uint64_t>{false, 2},
                      std::pair<bool, std::uint64_t>{false, 3}));

} // namespace
} // namespace skybyte
