/**
 * @file
 * Tests for the shared uncore: L3 behaviour, LLC MSHR capacity and
 * cross-core coalescing (§III-A C1: one CXL.mem request can serve
 * instructions from several cores), DelayHint fan-out, and the off-chip
 * latency histogram that backs Figure 3. The binary replaces the global
 * operator new to count the allocations of the miss path and of a
 * whole System::run.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string_view>

#include "common/event_queue.h"
#include "cpu/uncore.h"
#include "sim/experiment.h"
#include "sim/system.h"

namespace {

/** Heap allocations counted while g_countAllocs is set. */
bool g_countAllocs = false;
std::size_t g_allocs = 0;

} // namespace

// Counting replacements of the global allocation functions; the array
// and nothrow forms route through these by default.
void *
operator new(std::size_t n)
{
    if (g_countAllocs)
        ++g_allocs;
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace skybyte {
namespace {

/** Backend that lets the test control response timing and kind. */
class ManualBackend : public MemoryBackend
{
  public:
    struct Pending
    {
        Addr line;
        MemCallback cb;
    };

    void
    read(const MemRequest &req, Tick, MemCallback cb) override
    {
        pending.push_back({req.lineAddr, std::move(cb)});
    }

    void
    write(const MemRequest &req, Tick) override
    {
        writes.push_back(req.lineAddr);
    }

    void
    respondAll(MemResponseKind kind, LineValue value = 0)
    {
        // Swap, not move: both buffers keep their storage.
        batch.swap(pending);
        for (auto &p : batch) {
            MemResponse resp;
            resp.kind = kind;
            resp.lineAddr = p.line;
            resp.value = value;
            p.cb(resp);
        }
        batch.clear();
    }

    std::vector<Pending> pending;
    std::vector<Pending> batch;
    std::vector<Addr> writes;
};

struct UncoreFixture
{
    UncoreFixture()
    {
        cfg.llc.sizeBytes = 64 * kCachelineBytes;
        cfg.llc.mshrs = 4;
        uncore = std::make_unique<Uncore>(cfg, eq, backend);
    }

    /** Slab-backed miss record (MissRef replaced the shared_ptr). */
    MissRef
    makeStatus(Addr line)
    {
        MissRef st = uncore->makeMiss();
        st->lineAddr = line;
        st->owner = nullptr; // no core callbacks in these tests
        return st;
    }

    EventQueue eq;
    CpuConfig cfg;
    ManualBackend backend;
    std::unique_ptr<Uncore> uncore;
};

TEST(Uncore, MissGoesToBackendOnce)
{
    UncoreFixture fx;
    auto s1 = fx.makeStatus(0x1000);
    EXPECT_EQ(fx.uncore->load(s1, 0), UncoreLoadResult::Pending);
    EXPECT_EQ(fx.backend.pending.size(), 1u);
    EXPECT_EQ(fx.uncore->llcMisses(), 1u);
}

TEST(Uncore, SameLineCoalesces)
{
    UncoreFixture fx;
    auto s1 = fx.makeStatus(0x2000);
    auto s2 = fx.makeStatus(0x2000);
    fx.uncore->load(s1, 0);
    EXPECT_EQ(fx.uncore->load(s2, 0), UncoreLoadResult::Pending);
    // One backend request serves both statuses.
    EXPECT_EQ(fx.backend.pending.size(), 1u);
    EXPECT_EQ(fx.uncore->llcCoalesced(), 1u);
}

TEST(Uncore, MshrCapacityBlocks)
{
    UncoreFixture fx; // 4 LLC MSHRs
    for (Addr a = 0; a < 4; ++a)
        EXPECT_EQ(fx.uncore->load(fx.makeStatus(a * 0x1000), 0),
                  UncoreLoadResult::Pending);
    EXPECT_EQ(fx.uncore->load(fx.makeStatus(0x9000), 0),
              UncoreLoadResult::MshrBlocked);
    EXPECT_EQ(fx.uncore->llcMshrBlocks(), 1u);
    // A response frees the entry.
    fx.backend.respondAll(MemResponseKind::Data);
    EXPECT_EQ(fx.uncore->load(fx.makeStatus(0x9000), 0),
              UncoreLoadResult::Pending);
}

TEST(Uncore, DataResponseFillsL3)
{
    UncoreFixture fx;
    auto s = fx.makeStatus(0x3000);
    fx.uncore->load(s, 0);
    fx.backend.respondAll(MemResponseKind::Data, 777);
    EXPECT_TRUE(s->done);
    EXPECT_EQ(s->value, 777u);
    // Subsequent load hits in L3 with the functional value.
    auto s2 = fx.makeStatus(0x3000);
    EXPECT_EQ(fx.uncore->load(s2, 0), UncoreLoadResult::HitL3);
    EXPECT_EQ(s2->value, 777u);
}

TEST(Uncore, HintMarksAllWaiters)
{
    UncoreFixture fx;
    auto s1 = fx.makeStatus(0x4000);
    auto s2 = fx.makeStatus(0x4000);
    fx.uncore->load(s1, 0);
    fx.uncore->load(s2, 0);
    fx.backend.respondAll(MemResponseKind::DelayHint);
    EXPECT_TRUE(s1->hinted);
    EXPECT_TRUE(s2->hinted);
    EXPECT_FALSE(s1->done);
    // The transaction ended: the line is NOT in L3.
    auto s3 = fx.makeStatus(0x4000);
    EXPECT_EQ(fx.uncore->load(s3, 0), UncoreLoadResult::Pending);
}

TEST(Uncore, DirtyL3VictimWritesBack)
{
    UncoreFixture fx;
    // Fill L3 with dirty lines via writebacks until something spills.
    for (Addr i = 0; i < 200; ++i)
        fx.uncore->writebackToL3(i * kCachelineBytes, i, 0);
    EXPECT_GT(fx.backend.writes.size(), 0u);
}

TEST(Uncore, OffchipHistogramRecordsLatency)
{
    UncoreFixture fx;
    auto s = fx.makeStatus(0x5000);
    s->issuedAt = 0;
    fx.uncore->load(s, 0);
    // Respond at a later simulated time.
    fx.eq.schedule(nsToTicks(500.0), [&] {
        fx.backend.respondAll(MemResponseKind::Data);
    });
    fx.eq.run();
    EXPECT_EQ(fx.uncore->offchipLatency().count(), 1u);
    EXPECT_GE(fx.uncore->offchipLatency().meanTicks(),
              static_cast<double>(nsToTicks(400.0)));
}

TEST(Uncore, MissPathAllocatesNothingAfterWarmup)
{
    UncoreFixture fx; // 4 LLC MSHRs
    // Four distinct missed lines, a second load coalescing onto each,
    // then every response.
    auto round = [&fx](Addr base) {
        for (Addr i = 0; i < 8; ++i)
            fx.uncore->load(fx.makeStatus(base + i / 2 * kCachelineBytes), 0);
        fx.backend.respondAll(MemResponseKind::Data);
    };
    round(0x100000); // warm-up: the miss slab and the backend's buffers
    round(0x200000);
    g_allocs = 0;
    g_countAllocs = true;
    round(0x300000);
    g_countAllocs = false;
    EXPECT_EQ(g_allocs, 0u);
    EXPECT_EQ(fx.uncore->llcCoalesced(), 12u);
    EXPECT_EQ(fx.uncore->linesInFlight(), 0u);
}

TEST(RunPhase, AllocationsStayBoundedAtAnyRunLength)
{
    // What a run keeps is sized at construction or recycled from slabs,
    // so System::run (result included) allocates only while slabs and
    // page tables grow to their peak, not per instruction, squash or
    // callback: doubling the run length stays within the same bound.
    // SkyByte-Full gets a bound of its own: its slab chunks, the
    // MigrationEngine's region slab and promoted_ set, and the write
    // log's index vectors grow until they reach their peak.
    for (const char *variant :
         {"DRAM-Only", "Base-CSSD", "SkyByte-C", "SkyByte-CP",
          "AstriFlash-CXL", "SkyByte-Full"}) {
        const std::size_t bound =
            std::string_view(variant) == "SkyByte-Full" ? 96 : 64;
        for (const char *workload :
             {"zipf:footprint=64M,instr=200000,threads=4",
              "zipf:footprint=64M,instr=400000,threads=4"}) {
            System sys(makeBenchConfig(variant), workload,
                       WorkloadParams{});
            g_allocs = 0;
            g_countAllocs = true;
            const SimResult res = sys.run();
            g_countAllocs = false;
            EXPECT_LE(g_allocs, bound) << variant << " / " << workload;
            EXPECT_FALSE(res.timedOut);
            EXPECT_GT(res.committedInstructions, 0u);
        }
    }
}

} // namespace
} // namespace skybyte
