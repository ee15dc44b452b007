/**
 * @file
 * Functional payload is optional (SimConfig::audit). Each component that
 * can carry line values (SetAssocCache, DramModel, PageCache, Ftl,
 * WriteLog) runs one seeded random access/fill/evict mix twice, with
 * payload off and on. Timings, hits, victims and evictions must be
 * identical; the instance with payload returns the values last stored,
 * and the one without holds none (every value it reports is 0).
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <stdexcept>

#include "common/rng.h"
#include "core/page_cache.h"
#include "core/write_log.h"
#include "cpu/cache.h"
#include "mem/dram.h"
#include "ssd/ftl.h"

namespace skybyte {
namespace {

constexpr int kOps = 20'000;

TEST(Payload, SetAssocCacheBehavesTheSameWithoutValues)
{
    SetAssocCache on(8 * 1024, 4, true);
    SetAssocCache off(8 * 1024, 4, false);
    std::map<Addr, LineValue> held; // value each line holds in `on`
    Rng rng(0x5a1);
    for (int i = 0; i < kOps; ++i) {
        const Addr line = rng.below(512) * kCachelineBytes;
        const LineValue v = rng.next() | 1;
        switch (rng.below(4)) {
          case 0: { // read
            LineValue got_on = 0, got_off = 7;
            const bool hit = on.access(line, false, 0, &got_on);
            ASSERT_EQ(off.access(line, false, 0, &got_off), hit) << i;
            if (hit) {
                EXPECT_EQ(got_on, held[line]) << i;
                EXPECT_EQ(got_off, 0u) << i;
            }
            break;
          }
          case 1: { // write
            const bool hit = on.access(line, true, v);
            ASSERT_EQ(off.access(line, true, v), hit) << i;
            if (hit)
                held[line] = v;
            break;
          }
          case 2: { // fill, clean or dirty
            const bool dirty = rng.chance(0.5);
            const CacheResult a = on.fill(line, dirty, v);
            const CacheResult b = off.fill(line, dirty, v);
            ASSERT_EQ(b.hit, a.hit) << i;
            ASSERT_EQ(b.writeback, a.writeback) << i;
            ASSERT_EQ(b.victimAddr, a.victimAddr) << i;
            if (a.writeback) {
                EXPECT_EQ(a.victimValue, held[a.victimAddr]) << i;
                EXPECT_EQ(b.victimValue, 0u) << i;
            }
            if (!a.hit || dirty)
                held[line] = v;
            break;
          }
          default: { // invalidate
            bool dirty_on = false, dirty_off = false;
            ASSERT_EQ(off.invalidate(line, &dirty_off),
                      on.invalidate(line, &dirty_on))
                << i;
            ASSERT_EQ(dirty_off, dirty_on) << i;
          }
        }
    }
    EXPECT_EQ(off.hits(), on.hits());
    EXPECT_EQ(off.misses(), on.misses());
}

TEST(Payload, DramModelTimesTheSameWithoutValues)
{
    EventQueue eq_on, eq_off;
    DramModel on(eq_on, nsToTicks(40.0), 2, 16.0, {}, true);
    DramModel off(eq_off, nsToTicks(40.0), 2, 16.0, {}, false);
    std::map<Addr, LineValue> written;
    Rng rng(0xd7a);
    Tick when = 0;
    for (int i = 0; i < kOps; ++i) {
        when += rng.below(200);
        MemRequest req;
        req.lineAddr = rng.below(256) * kCachelineBytes;
        if (rng.chance(0.4)) {
            req.isWrite = true;
            req.value = rng.next() | 1;
            on.write(req, when);
            off.write(req, when);
            written[req.lineAddr] = req.value;
            continue;
        }
        const auto it = written.find(req.lineAddr);
        const LineValue want = it == written.end() ? 0 : it->second;
        LineValue got_on = 0, got_off = 7;
        const Tick done_on = on.readAt(req, when, [&](const MemResponse &r) {
            got_on = r.value;
        });
        const Tick done_off =
            off.readAt(req, when, [&](const MemResponse &r) {
                got_off = r.value;
            });
        ASSERT_EQ(done_off, done_on) << i;
        eq_on.run();
        eq_off.run();
        EXPECT_EQ(got_on, want) << i;
        EXPECT_EQ(got_off, 0u) << i;
        EXPECT_EQ(on.peek(req.lineAddr), want) << i;
        EXPECT_EQ(off.peek(req.lineAddr), 0u) << i;
    }
    off.poke(0, 99);
    EXPECT_EQ(off.peek(0), 0u);
    EXPECT_EQ(off.reads(), on.reads());
    EXPECT_EQ(off.writes(), on.writes());
    EXPECT_EQ(off.bytesTransferred(), on.bytesTransferred());
}

TEST(Payload, PageCacheEvictsTheSameWithoutValues)
{
    PageCache on(16 * kPageBytes, 4, true);
    PageCache off(16 * kPageBytes, 4, false);
    std::map<std::uint64_t, LineValue> held; // line 0 of each page in `on`
    Rng rng(0x9a6e);
    for (int i = 0; i < kOps; ++i) {
        const std::uint64_t lpn = rng.below(64);
        switch (rng.below(3)) {
          case 0: { // lookup, sometimes dirtying the page
            CachedPage *a = on.lookup(lpn);
            CachedPage *b = off.lookup(lpn);
            ASSERT_EQ(b != nullptr, a != nullptr) << i;
            if (a == nullptr)
                break;
            EXPECT_EQ((*on.data(*a))[0], held[lpn]) << i;
            EXPECT_EQ(off.data(*b), nullptr) << i;
            if (rng.chance(0.5)) {
                const LineValue v = rng.next() | 1;
                (*on.data(*a))[0] = v;
                held[lpn] = v;
                a->dirty = b->dirty = true;
                a->dirtyMask = b->dirtyMask = 1;
            }
            break;
          }
          case 1: { // fill
            PageEvict ev_on, ev_off;
            PageData victim_on{}, victim_off{};
            victim_off[0] = 0xdead;
            CachedPage *a = on.fill(lpn, ev_on, &victim_on);
            CachedPage *b = off.fill(lpn, ev_off, &victim_off);
            ASSERT_EQ(ev_off.evicted, ev_on.evicted) << i;
            ASSERT_EQ(ev_off.dirty, ev_on.dirty) << i;
            ASSERT_EQ(ev_off.lpn, ev_on.lpn) << i;
            ASSERT_EQ(ev_off.dirtyMask, ev_on.dirtyMask) << i;
            if (ev_on.evicted && ev_on.dirty) {
                EXPECT_EQ(victim_on[0], held[ev_on.lpn]) << i;
            }
            EXPECT_EQ(victim_off[0], 0xdeadu) << i; // never written
            const LineValue v = rng.next() | 1;
            (*on.data(*a))[0] = v;
            held[lpn] = v;
            EXPECT_EQ(off.data(*b), nullptr) << i;
            break;
          }
          default: { // invalidate
            PageEvict ev_on, ev_off;
            PageData data_on{}, data_off{};
            const bool present = on.invalidate(lpn, &ev_on, &data_on);
            ASSERT_EQ(off.invalidate(lpn, &ev_off, &data_off), present)
                << i;
            ASSERT_EQ(ev_off.dirty, ev_on.dirty) << i;
            if (present) {
                EXPECT_EQ(data_on[0], held[lpn]) << i;
            }
            EXPECT_EQ(data_off[0], 0u) << i;
          }
        }
    }
    EXPECT_EQ(off.hits(), on.hits());
    EXPECT_EQ(off.misses(), on.misses());
    EXPECT_EQ(off.residentPages(), on.residentPages());
}

TEST(Payload, FtlProgramsTheSameWithoutValues)
{
    FlashConfig cfg;
    cfg.channels = 2;
    cfg.chipsPerChannel = 2;
    cfg.diesPerChip = 2;
    cfg.blocksPerPlane = 4;
    cfg.pagesPerBlock = 8;
    EventQueue eq_on, eq_off;
    Ftl on(cfg, eq_on, 1, true);
    Ftl off(cfg, eq_off, 1, false);
    std::map<std::uint64_t, LineValue> written; // line 3 of each page
    Rng rng(0xf71);
    for (int i = 0; i < 2'000; ++i) {
        const std::uint64_t lpn = rng.below(48);
        Tick done_on = 0, done_off = 0;
        if (rng.chance(0.6)) {
            PageData data{};
            data[3] = rng.next() | 1;
            on.writePage(lpn, eq_on.now(), &data,
                         [&](Tick t) { done_on = t; });
            off.writePage(lpn, eq_off.now(), &data,
                          [&](Tick t) { done_off = t; });
            written[lpn] = data[3];
        } else {
            on.readPage(lpn, eq_on.now(), [&](Tick t) { done_on = t; });
            off.readPage(lpn, eq_off.now(), [&](Tick t) { done_off = t; });
        }
        eq_on.run();
        eq_off.run();
        ASSERT_EQ(done_off, done_on) << i;
        const Addr line = lpn * kPageBytes + 3 * kCachelineBytes;
        const auto it = written.find(lpn);
        EXPECT_EQ(on.peekLine(line), it == written.end() ? 0 : it->second)
            << i;
        EXPECT_EQ(off.peekLine(line), 0u) << i;
    }
    EXPECT_EQ(off.stats().hostPrograms, on.stats().hostPrograms);
    EXPECT_EQ(off.stats().gcRuns, on.stats().gcRuns);
    EXPECT_EQ(off.stats().gcPageMoves, on.stats().gcPageMoves);
    EXPECT_EQ(off.totalPrograms(), on.totalPrograms());
    EXPECT_EQ(off.totalReads(), on.totalReads());
    EXPECT_GT(on.stats().gcRuns, 0u); // the mix reached GC
    EXPECT_EQ(off.audit(), "");
    EXPECT_THROW(off.pageData(0), std::logic_error);
}

TEST(Payload, WriteLogBehavesTheSameWithoutValues)
{
    WriteLog on(64 * kCachelineBytes, true);
    WriteLog off(64 * kCachelineBytes, false);
    // Newest value of each line in the active and the draining buffer.
    std::map<Addr, LineValue> active, draining;
    auto same_buffers = [](const WriteLogBuffer &a, const WriteLogBuffer &b) {
        return a.size() == b.size() && a.pageCount() == b.pageCount()
               && a.indexBytes() == b.indexBytes();
    };
    auto newest = [&](Addr line) -> std::optional<LineValue> {
        if (const auto it = active.find(line); it != active.end())
            return it->second;
        if (const auto it = draining.find(line); it != draining.end())
            return it->second;
        return std::nullopt;
    };
    Rng rng(0x1a9);
    for (int i = 0; i < kOps; ++i) {
        const std::uint64_t lpa = rng.below(16);
        const Addr line = lpa * kPageBytes + rng.below(kLinesPerPage)
                                                 * kCachelineBytes;
        switch (rng.below(8)) {
          case 0: // a migrated page leaves both buffers
            on.invalidatePage(lpa);
            off.invalidatePage(lpa);
            std::erase_if(active, [lpa](const auto &kv) {
                return pageNumber(kv.first) == lpa;
            });
            std::erase_if(draining, [lpa](const auto &kv) {
                return pageNumber(kv.first) == lpa;
            });
            break;
          case 1: // compaction: start when full, finish when draining
            if (on.draining()) {
                on.finishCompaction();
                off.finishCompaction();
                draining.clear();
            } else if (on.needCompaction()) {
                ASSERT_TRUE(off.needCompaction()) << i;
                on.beginCompaction();
                off.beginCompaction();
                draining = std::move(active);
                active.clear();
            }
            break;
          default: { // append
            const LineValue v = rng.next() | 1;
            on.append(line, v);
            off.append(line, v);
            active[line] = v;
          }
        }
        ASSERT_EQ(off.draining(), on.draining()) << i;
        ASSERT_EQ(off.stats().updateHits, on.stats().updateHits) << i;
        ASSERT_EQ(off.stats().overflowAppends, on.stats().overflowAppends)
            << i;
        ASSERT_EQ(off.stats().indexBytesPeak, on.stats().indexBytesPeak)
            << i;
        ASSERT_TRUE(same_buffers(off.activeBuffer(), on.activeBuffer()))
            << i;
        ASSERT_TRUE(same_buffers(off.standbyBuffer(), on.standbyBuffer()))
            << i;
        ASSERT_EQ(off.activeBuffer().mergePageInto(lpa, nullptr),
                  on.activeBuffer().mergePageInto(lpa, nullptr))
            << i;
        ASSERT_EQ(off.gatherDraining(lpa, nullptr),
                  on.gatherDraining(lpa, nullptr))
            << i;

        const std::optional<LineValue> want = newest(line);
        const std::optional<LineValue> got_on = on.lookup(line);
        const std::optional<LineValue> got_off = off.lookup(line);
        ASSERT_EQ(got_on.has_value(), want.has_value()) << i;
        ASSERT_EQ(got_off.has_value(), want.has_value()) << i;
        if (want) {
            EXPECT_EQ(*got_on, *want) << i;
            EXPECT_EQ(*got_off, 0u) << i;
        }
        // The merged page overlays the newest values (0 without payload)
        // on exactly the logged lines.
        PageData page_on{}, page_off{};
        page_off.fill(7);
        on.mergePageInto(lpa, page_on);
        off.mergePageInto(lpa, page_off);
        for (std::uint32_t o = 0; o < kLinesPerPage; ++o) {
            const auto logged = newest(lpa * kPageBytes + o * kCachelineBytes);
            EXPECT_EQ(page_on[o], logged.value_or(0)) << i;
            EXPECT_EQ(page_off[o], logged ? 0u : 7u) << i;
        }
    }
    EXPECT_GT(on.stats().updateHits, 0u);
    EXPECT_GT(on.stats().overflowAppends, 0u); // appends outran drains
}

} // namespace
} // namespace skybyte
