/**
 * @file
 * Tests for the flash substrate: channel timing per NAND family
 * (Table IV), die/bus queueing, the Algorithm 1 delay estimator, FTL
 * mapping with out-of-place updates, GC triggering and reclamation,
 * preconditioning (§VI-A), the dense host-LPN maps, and the FTL's
 * consistency audit. The channel's O(1) die choice is checked against
 * a linear first-minimum scan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/event_queue.h"
#include "ssd/flash.h"
#include "ssd/ftl.h"

namespace skybyte {
namespace {

FlashConfig
tinyFlash()
{
    FlashConfig cfg;
    cfg.channels = 2;
    cfg.chipsPerChannel = 2;
    cfg.diesPerChip = 2;
    cfg.blocksPerPlane = 4; // 16 blocks/channel
    cfg.pagesPerBlock = 8;
    return cfg;
}

TEST(FlashChannel, ReadLatencyIsCellPlusTransfer)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash();
    FlashChannel ch(0, cfg, eq);
    Tick done = 0;
    ch.enqueue(FlashOpKind::Read, 0, [&](Tick t) { done = t; });
    eq.run();
    EXPECT_EQ(done, cfg.timing.readLatency + cfg.pageTransferTime);
}

TEST(FlashChannel, NandPresetsOrdering)
{
    // Table IV: ULL < ULL2 < SLC < MLC read latency.
    const Tick ull = nandTiming(NandType::ULL).readLatency;
    const Tick ull2 = nandTiming(NandType::ULL2).readLatency;
    const Tick slc = nandTiming(NandType::SLC).readLatency;
    const Tick mlc = nandTiming(NandType::MLC).readLatency;
    EXPECT_LT(ull, ull2);
    EXPECT_LT(ull2, slc);
    EXPECT_LT(slc, mlc);
    EXPECT_EQ(ull, usToTicks(3.0));
    EXPECT_EQ(nandTiming(NandType::MLC).eraseLatency, usToTicks(3000.0));
}

TEST(FlashChannel, DieParallelismOverlapsReads)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash(); // 4 dies on the channel
    FlashChannel ch(0, cfg, eq);
    std::vector<Tick> done;
    for (int i = 0; i < 4; ++i)
        ch.enqueue(FlashOpKind::Read, 0, [&](Tick t) { done.push_back(t); });
    eq.run();
    ASSERT_EQ(done.size(), 4u);
    // Cell reads overlap; only the bus transfers serialize.
    const Tick serial = 4 * (cfg.timing.readLatency + cfg.pageTransferTime);
    EXPECT_LT(done.back(), serial);
    EXPECT_GE(done.back(),
              cfg.timing.readLatency + 4 * cfg.pageTransferTime);
}

TEST(FlashChannel, EstimateGrowsWithQueueDepth)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash();
    FlashChannel ch(0, cfg, eq);
    const Tick idle = ch.estimateReadDelay(0);
    EXPECT_EQ(idle, cfg.timing.readLatency + cfg.pageTransferTime);
    for (int i = 0; i < 16; ++i)
        ch.enqueue(FlashOpKind::Read, 0, nullptr);
    EXPECT_GT(ch.estimateReadDelay(0), idle);
    EXPECT_EQ(ch.pendingReads(), 16u);
    eq.run();
    EXPECT_EQ(ch.pendingReads(), 0u);
    EXPECT_EQ(ch.completedReads(), 16u);
}

TEST(FlashChannel, GcActiveFlag)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash();
    FlashChannel ch(0, cfg, eq);
    EXPECT_FALSE(ch.gcActive());
    ch.setGcActive(true);
    EXPECT_TRUE(ch.gcActive());
}

/**
 * The channel's timing with the die chosen by a linear scan for the
 * first minimum free time: the reference the winner tree must match.
 */
struct LinearScanChannel
{
    const FlashConfig &cfg;
    std::vector<Tick> dieFree;
    Tick busFree = 0;

    std::size_t
    pickDie() const
    {
        std::size_t best = 0;
        for (std::size_t d = 1; d < dieFree.size(); ++d) {
            if (dieFree[d] < dieFree[best])
                best = d;
        }
        return best;
    }

    Tick
    enqueue(FlashOpKind kind, Tick when)
    {
        const std::size_t die = pickDie();
        const NandTiming &t = cfg.timing;
        Tick done = 0;
        if (kind == FlashOpKind::Read) {
            const Tick cell = std::max(when, dieFree[die]) + t.readLatency;
            done = std::max(cell, busFree) + cfg.pageTransferTime;
            busFree = done;
        } else if (kind == FlashOpKind::Program) {
            busFree = std::max(when, busFree) + cfg.pageTransferTime;
            done = std::max(busFree, dieFree[die]) + t.programLatency;
        } else {
            done = std::max(when, dieFree[die]) + t.eraseLatency;
        }
        dieFree[die] = done;
        return done;
    }

    Tick
    estimateReadDelay(Tick now) const
    {
        const Tick cell =
            std::max(now, dieFree[pickDie()]) + cfg.timing.readLatency;
        return std::max(cell, busFree) + cfg.pageTransferTime - now;
    }
};

TEST(FlashChannel, DieChoiceMatchesLinearFirstMinimumScan)
{
    struct Geometry
    {
        std::uint32_t chips, dies, planes;
    };
    for (const Geometry g : {Geometry{8, 8, 1}, Geometry{3, 5, 2},
                             Geometry{1, 1, 1}}) {
        FlashConfig cfg;
        cfg.chipsPerChannel = g.chips;
        cfg.diesPerChip = g.dies;
        cfg.planesPerDie = g.planes;
        EventQueue eq;
        FlashChannel ch(0, cfg, eq);
        LinearScanChannel ref{
            cfg, std::vector<Tick>(std::size_t{g.chips} * g.dies * g.planes),
            0};
        // All dies tie at the start: die 0 wins.
        EXPECT_EQ(ch.pickDie(), 0u);
        std::vector<Tick> done, expected;
        std::uint32_t rng = 0x1234567u + g.chips;
        auto next = [&rng] {
            rng ^= rng << 13;
            rng ^= rng >> 17;
            rng ^= rng << 5;
            return rng;
        };
        Tick now = 0;
        for (int op = 0; op < 4000; ++op) {
            // Bursts at one tick, then gaps up to ~4 reads long, so the
            // dies keep tying and overtaking each other.
            if (next() % 4 == 0)
                now += next() % (4 * cfg.timing.readLatency);
            const std::uint32_t pick = next() % 8;
            const FlashOpKind kind = pick < 5   ? FlashOpKind::Read
                                     : pick < 7 ? FlashOpKind::Program
                                                : FlashOpKind::Erase;
            ASSERT_EQ(ch.pickDie(), ref.pickDie()) << "op " << op;
            EXPECT_EQ(ch.estimateReadDelay(now), ref.estimateReadDelay(now))
                << "op " << op;
            expected.push_back(ref.enqueue(kind, now));
            const std::size_t slot = done.size();
            done.push_back(0);
            ch.enqueue(kind, now, [&done, slot](Tick t) { done[slot] = t; });
            EXPECT_EQ(ch.earliestDieFree(),
                      ref.dieFree[ref.pickDie()]);
        }
        eq.run();
        EXPECT_EQ(done, expected)
            << g.chips << "x" << g.dies << "x" << g.planes;
    }
}

TEST(Ftl, ReadMapsOnDemandAndCompletes)
{
    EventQueue eq;
    Ftl ftl(tinyFlash(), eq, 1);
    Tick done = 0;
    ftl.readPage(5, 0, [&](Tick t) { done = t; });
    eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(ftl.stats().hostReads, 1u);
}

TEST(Ftl, WriteIsOutOfPlace)
{
    EventQueue eq;
    Ftl ftl(tinyFlash(), eq, 1);
    PageData data{};
    data[0] = 42;
    ftl.writePage(3, 0, &data, nullptr);
    ftl.writePage(3, 0, &data, nullptr); // rewrite invalidates the old
    eq.run();
    EXPECT_EQ(ftl.stats().hostPrograms, 2u);
    EXPECT_EQ(ftl.pageData(3)[0], 42u);
}

TEST(Ftl, FunctionalLinePeek)
{
    EventQueue eq;
    Ftl ftl(tinyFlash(), eq, 1);
    PageData data{};
    data[7] = 1234;
    ftl.writePage(2, 0, &data, nullptr);
    EXPECT_EQ(ftl.peekLine(2 * kPageBytes + 7 * kCachelineBytes), 1234u);
    EXPECT_EQ(ftl.peekLine(9 * kPageBytes), 0u);
}

TEST(Ftl, DenseMapsReadZeroBeyondTheirEnd)
{
    EventQueue eq;
    Ftl ftl(tinyFlash(), eq, 1);
    // Nothing touched yet: any LPN reads as zero, however far out.
    EXPECT_EQ(ftl.peekLine(1000 * kPageBytes), 0u);
    PageData &low = ftl.pageData(1);
    low[0] = 11;
    // Growing the page store past its end zero-fills the new page and
    // keeps earlier pages (and references to them) intact.
    PageData &far = ftl.pageData(5000);
    EXPECT_EQ(far[3], 0u);
    far[3] = 77;
    EXPECT_EQ(&ftl.pageData(1), &low);
    EXPECT_EQ(ftl.peekLine(1 * kPageBytes), 11u);
    EXPECT_EQ(ftl.peekLine(5000 * kPageBytes + 3 * kCachelineBytes), 77u);
    EXPECT_EQ(ftl.peekLine(4999 * kPageBytes), 0u);
    EXPECT_EQ(ftl.peekLine(5001 * kPageBytes), 0u);
}

TEST(Ftl, HostWriteBeyondPreconditionFootprintGrowsTheMap)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash();
    Ftl ftl(cfg, eq, 1);
    ftl.precondition(16);
    PageData data{};
    data[5] = 99;
    ftl.writePage(40, 0, &data, nullptr);
    Tick done = 0;
    ftl.readPage(41, 0, [&](Tick t) { done = t; }); // first touch
    eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(ftl.pageData(40)[5], 99u);
    EXPECT_EQ(ftl.audit(), "");
}

TEST(Ftl, ColdLpnRangeIsNotHostAddressable)
{
    EventQueue eq;
    Ftl ftl(tinyFlash(), eq, 1);
    EXPECT_THROW(ftl.readPage(Ftl::kColdLpnBase, 0, nullptr),
                 std::out_of_range);
    EXPECT_THROW(ftl.writePage(Ftl::kColdLpnBase, 0, nullptr, nullptr),
                 std::out_of_range);
    EXPECT_THROW(ftl.pageData(Ftl::kColdLpnBase), std::out_of_range);
    EXPECT_EQ(ftl.peekLine(Ftl::kColdLpnBase * kPageBytes), 0u);
    EXPECT_EQ(ftl.audit(), "");
}

TEST(Ftl, ProgramCompletionRechecksGcAfterItsCallback)
{
    // Every page stays valid, so a GC round finds nothing to reclaim
    // and stops at once, and each check below the free-block threshold
    // counts one run. A host program checks when it is issued and again
    // when it completes, after the caller's callback.
    EventQueue eq;
    const FlashConfig cfg = tinyFlash();
    Ftl ftl(cfg, eq, 1);
    const auto threshold = static_cast<std::uint32_t>(
        static_cast<double>(cfg.blocksPerChannel())
        * cfg.gcFreeBlockThreshold);
    std::uint64_t lpn = 0;
    while (ftl.freeBlocks(0) >= threshold) {
        ftl.writePage(lpn, eq.now(), nullptr, nullptr);
        lpn += cfg.channels; // channel 0, never rewritten
    }
    eq.run();
    const std::uint64_t before = ftl.stats().gcRuns;
    std::uint64_t at_callback = 0;
    ftl.writePage(lpn, eq.now(), nullptr,
                  [&](Tick) { at_callback = ftl.stats().gcRuns; });
    EXPECT_EQ(ftl.stats().gcRuns, before + 1);
    eq.run();
    EXPECT_EQ(at_callback, before + 1);
    EXPECT_EQ(ftl.stats().gcRuns, before + 2);
    EXPECT_EQ(ftl.stats().gcErases, 0u);
    EXPECT_EQ(ftl.audit(), "");
}

TEST(Ftl, GcTriggersAndReclaims)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash();
    Ftl ftl(cfg, eq, 1);
    // Write the same small set of pages repeatedly: out-of-place updates
    // create dead pages until GC must run.
    PageData data{};
    for (int round = 0; round < 60; ++round) {
        for (std::uint64_t lpn = 0; lpn < 8; ++lpn)
            ftl.writePage(lpn * cfg.channels, eq.now(), &data, nullptr);
        eq.run();
    }
    EXPECT_GT(ftl.stats().gcRuns, 0u);
    EXPECT_GT(ftl.stats().gcErases, 0u);
    // Device still functional and mapped.
    Tick done = 0;
    ftl.readPage(0, eq.now(), [&](Tick t) { done = t; });
    eq.run();
    EXPECT_GT(done, 0u);
    // Free blocks recovered above zero.
    EXPECT_GT(ftl.freeBlocks(0), 0u);
    EXPECT_EQ(ftl.audit(), "");
}

TEST(Ftl, PreconditionLeavesFreeBlocksNearThreshold)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash();
    Ftl ftl(cfg, eq, 1);
    ftl.precondition(16);
    const auto threshold = static_cast<std::uint32_t>(
        cfg.blocksPerChannel() * cfg.gcFreeBlockThreshold);
    for (std::uint32_t c = 0; c < cfg.channels; ++c) {
        EXPECT_GE(ftl.freeBlocks(c), threshold);
        EXPECT_LE(ftl.freeBlocks(c), threshold + 3);
    }
    EXPECT_EQ(ftl.audit(), "");
}

TEST(Ftl, PreconditionedDefaultGeometryIsConsistent)
{
    EventQueue eq;
    FlashConfig cfg; // 16 channels, 2 GB
    Ftl ftl(cfg, eq, 7);
    const std::uint64_t footprint = cfg.totalPages() / 4;
    ftl.precondition(footprint);
    EXPECT_EQ(ftl.audit(), "");
    // Scattered host rewrites push every channel into GC, which then
    // relocates the live pages of partly dead blocks.
    PageData data{};
    for (std::uint64_t i = 0; i < footprint; ++i) {
        ftl.writePage(i * 7919 % footprint, eq.now(), &data, nullptr);
        if (i % 64 == 63)
            eq.run();
    }
    eq.run();
    EXPECT_GT(ftl.stats().gcPageMoves, 0u);
    EXPECT_EQ(ftl.audit(), "");
}

TEST(Ftl, FootprintLargerThanTheDeviceThrows)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash();
    Ftl ftl(cfg, eq, 1);
    try {
        ftl.precondition(2 * cfg.totalPages());
        FAIL() << "precondition of twice the device capacity succeeded";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("channel 0"), std::string::npos) << what;
        EXPECT_NE(what.find(std::to_string(2 * cfg.totalPages())),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(std::to_string(cfg.totalPages())),
                  std::string::npos)
            << what;
    }
}

TEST(Ftl, EstimatorSeesGc)
{
    EventQueue eq;
    Ftl ftl(tinyFlash(), eq, 1);
    EXPECT_FALSE(ftl.gcActiveFor(0));
}

TEST(Ftl, ChannelStriping)
{
    EventQueue eq;
    FlashConfig cfg = tinyFlash();
    Ftl ftl(cfg, eq, 1);
    // LPN n maps to channel n % channels.
    EXPECT_EQ(&ftl.channelOf(0), &ftl.channelOf(2));
    EXPECT_NE(&ftl.channelOf(0), &ftl.channelOf(1));
}

} // namespace
} // namespace skybyte
