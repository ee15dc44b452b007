/**
 * @file
 * Tests for the core model + uncore against a scripted memory backend:
 * ROB-window stalls, MLP limited by L1 MSHRs, LLC-level coalescing,
 * memory-bound accounting, the coordinated context switch path
 * (hint -> Long Delay Exception -> squash -> replay, §III-A C1-C4), and
 * which MSHR-stalled cores an LLC response wakes.
 */

#include <gtest/gtest.h>

#include "common/event_queue.h"
#include "core/os.h"
#include "cpu/core.h"
#include "cpu/uncore.h"
#include "trace/workload.h"

namespace skybyte {
namespace {

/** Backend with programmable latency that can emit DelayHints. */
class ScriptedBackend : public MemoryBackend
{
  public:
    explicit ScriptedBackend(EventQueue &eq) : eq_(eq) {}

    void
    read(const MemRequest &req, Tick when, MemCallback cb) override
    {
        reads_++;
        if (hintAll || reads_ <= hintFirst) {
            MemResponse resp;
            resp.kind = MemResponseKind::DelayHint;
            resp.lineAddr = req.lineAddr;
            eq_.schedule(when + hintLatency,
                         [cb = std::move(cb), resp]() mutable { cb(resp); });
            return;
        }
        MemResponse resp;
        resp.kind = MemResponseKind::Data;
        resp.lineAddr = req.lineAddr;
        resp.value = valueOf(req.lineAddr);
        const auto core = static_cast<std::size_t>(req.coreId);
        const Tick latency = core < coreDataLatency.size()
                                 ? coreDataLatency[core]
                                 : dataLatency;
        eq_.schedule(when + latency,
                     [cb = std::move(cb), resp]() mutable { cb(resp); });
    }

    void
    write(const MemRequest &, Tick) override
    {
        writes_++;
    }

    /** Payload this backend returns for @p line_addr. */
    static LineValue
    valueOf(Addr line_addr)
    {
        return line_addr ^ 0x5eedULL;
    }

    EventQueue &eq_;
    Tick dataLatency = nsToTicks(1000.0);
    /** Data latency of reads from core i, where set; else dataLatency. */
    std::vector<Tick> coreDataLatency;
    Tick hintLatency = nsToTicks(100.0);
    bool hintAll = false;
    /** Hint the first this-many reads, then answer with data. */
    std::uint64_t hintFirst = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

/** Fixed sequential single-thread workload: strided cold loads. */
class StrideWorkload : public Workload
{
  public:
    StrideWorkload(std::uint64_t records, std::uint32_t compute,
                   bool writes = false)
        : records_(records), compute_(compute), writes_(writes)
    {}

    std::string name() const override { return "stride"; }
    std::uint64_t footprintBytes() const override { return 1 << 30; }
    int numThreads() const override { return 1; }
    std::uint64_t instructionsEmitted(int) const override
    {
        return emitted_;
    }

    std::uint32_t
    refill(int, TraceBatch &batch) override
    {
        std::uint32_t n = 0;
        while (n < TraceBatch::kCapacity && produced_ < records_) {
            produced_++;
            TraceRecord &rec = batch.records[n++];
            rec.computeOps = compute_;
            rec.isWrite = writes_;
            rec.vaddr = kDataBase + produced_ * kPageBytes; // uncached
            emitted_ += compute_ + 1;
        }
        batch.count = n;
        batch.cursor = 0;
        return n;
    }

  private:
    std::uint64_t records_;
    std::uint32_t compute_;
    bool writes_;
    std::uint64_t produced_ = 0;
    std::uint64_t emitted_ = 0;
};

/**
 * One cold-load stream per thread: thread t loads records[t] lines,
 * one page apart, on lines no other thread touches.
 */
class StreamsWorkload : public Workload
{
  public:
    explicit StreamsWorkload(std::vector<std::uint64_t> records)
        : records_(std::move(records)), produced_(records_.size(), 0)
    {}

    std::string name() const override { return "streams"; }
    std::uint64_t footprintBytes() const override { return 1ULL << 34; }
    int numThreads() const override
    {
        return static_cast<int>(records_.size());
    }
    std::uint64_t instructionsEmitted(int t) const override
    {
        return produced_[static_cast<std::size_t>(t)];
    }

    std::uint32_t
    refill(int t, TraceBatch &batch) override
    {
        const auto tid = static_cast<std::size_t>(t);
        std::uint32_t n = 0;
        while (n < TraceBatch::kCapacity && produced_[tid] < records_[tid]) {
            const std::uint64_t page = (tid << 20) + ++produced_[tid];
            batch.records[n++] = {0, false, kDataBase + page * kPageBytes};
        }
        batch.count = n;
        batch.cursor = 0;
        return n;
    }

  private:
    std::vector<std::uint64_t> records_;
    std::vector<std::uint64_t> produced_;
};

struct CoreFixture
{
    explicit CoreFixture(std::unique_ptr<Workload> wl,
                         PolicyConfig pol = {}, CpuConfig cpu_cfg = {},
                         int num_cores = 1)
        : workload(std::move(wl)), backend(eq), cpu(cpu_cfg),
          policy(pol), uncore(cpu, eq, backend), sched(pol.schedPolicy, 1)
    {
        std::vector<Core *> raw;
        for (int c = 0; c < num_cores; ++c) {
            cores.push_back(
                std::make_unique<Core>(c, cpu, policy, eq, uncore));
            cores.back()->setScheduler(&sched);
            raw.push_back(cores.back().get());
        }
        core = raw.front();
        sched.setCores(std::move(raw));
        for (int t = 0; t < workload->numThreads(); ++t) {
            threads.push_back(std::make_unique<ThreadContext>(
                t, workload.get(), cpu.robEntries));
            sched.addThread(threads.back().get());
        }
    }

    void
    run()
    {
        sched.start(0);
        while (!sched.allFinished() && eq.step()) {
        }
    }

    EventQueue eq;
    std::unique_ptr<Workload> workload;
    ScriptedBackend backend;
    CpuConfig cpu;
    PolicyConfig policy;
    Uncore uncore;
    CxlAwareScheduler sched;
    std::vector<std::unique_ptr<ThreadContext>> threads;
    std::vector<std::unique_ptr<Core>> cores;
    Core *core = nullptr; ///< cores[0]
};

TEST(CoreModel, ExecutesAllInstructions)
{
    CoreFixture fx(std::make_unique<StrideWorkload>(200, 4));
    fx.run();
    EXPECT_TRUE(fx.sched.allFinished());
    EXPECT_EQ(fx.core->stats().committedInstructions, 200u * 5u);
}

TEST(CoreModel, MlpIsBoundedByMshrs)
{
    // 200 cold loads, 1 ms latency each, 8 L1 MSHRs: runtime must be
    // about (200/8) * latency, NOT 200 * latency (serial) and NOT one
    // latency (infinite MLP).
    CoreFixture fx(std::make_unique<StrideWorkload>(200, 0));
    fx.run();
    const double waves = 200.0 / fx.cpu.l1d.mshrs;
    const double expected =
        waves * static_cast<double>(fx.backend.dataLatency);
    const auto elapsed = static_cast<double>(fx.eq.now());
    EXPECT_GT(elapsed, expected * 0.8);
    EXPECT_LT(elapsed, expected * 1.6);
}

/** Single-thread workload replaying a fixed list of records. */
class ListWorkload : public Workload
{
  public:
    explicit ListWorkload(std::vector<TraceRecord> records)
        : records_(std::move(records))
    {}

    std::string name() const override { return "list"; }
    std::uint64_t footprintBytes() const override { return 1 << 30; }
    int numThreads() const override { return 1; }
    std::uint64_t instructionsEmitted(int) const override
    {
        return emitted_;
    }

    std::uint32_t
    refill(int, TraceBatch &batch) override
    {
        std::uint32_t n = 0;
        while (n < TraceBatch::kCapacity && next_ < records_.size()) {
            batch.records[n++] = records_[next_];
            emitted_ += records_[next_++].computeOps + 1;
        }
        batch.count = n;
        batch.cursor = 0;
        return n;
    }

  private:
    std::vector<TraceRecord> records_;
    std::size_t next_ = 0;
    std::uint64_t emitted_ = 0;
};

TEST(CoreModel, MissFillsCarryTheLoadedValue)
{
    // A completed miss installs the backend's payload, not 0, in both
    // private levels.
    CoreFixture fx(std::make_unique<StrideWorkload>(4, 0));
    fx.run();
    SetAssocCache l1 = fx.core->l1();
    SetAssocCache l2 = fx.core->l2();
    for (std::uint64_t i = 1; i <= 4; ++i) {
        const Addr line = Workload::kDataBase + i * kPageBytes;
        LineValue v1 = 0;
        LineValue v2 = 0;
        ASSERT_TRUE(l1.access(line, false, 0, &v1));
        ASSERT_TRUE(l2.access(line, false, 0, &v2));
        EXPECT_EQ(v1, ScriptedBackend::valueOf(line));
        EXPECT_EQ(v2, ScriptedBackend::valueOf(line));
    }
}

TEST(CoreModel, L2HitRefillCarriesTheL2Value)
{
    // Nine loads into a one-set, 8-way L1 push the first line out of L1
    // but not out of L2. Reloading it after the ROB drains hits L2 and
    // must refill L1 with L2's payload.
    CpuConfig cpu;
    cpu.l1d.sizeBytes = 8 * kCachelineBytes;
    std::vector<TraceRecord> records;
    for (std::uint64_t i = 0; i < 9; ++i)
        records.push_back({0, false, Workload::kDataBase + i * kPageBytes});
    const Addr first = Workload::kDataBase;
    // More compute slots than the ROB holds: admitted only once empty.
    records.push_back({cpu.robEntries, false, first});
    CoreFixture fx(std::make_unique<ListWorkload>(std::move(records)), {},
                   cpu);
    fx.run();
    EXPECT_EQ(fx.backend.reads_, 9u); // the reload never left the core
    SetAssocCache l1 = fx.core->l1();
    LineValue v = 0;
    ASSERT_TRUE(l1.access(first, false, 0, &v));
    EXPECT_EQ(v, ScriptedBackend::valueOf(first));
}

TEST(CoreModel, StallsAccountedAsMemoryBound)
{
    CoreFixture fx(std::make_unique<StrideWorkload>(100, 1));
    fx.run();
    const CoreStats &st = fx.core->stats();
    EXPECT_GT(st.memStallTicks, st.computeTicks * 10);
}

TEST(CoreModel, StoresDoNotStall)
{
    CoreFixture fx(std::make_unique<StrideWorkload>(500, 0, true));
    fx.run();
    // Stores allocate without fetching: total time is tiny.
    EXPECT_LT(fx.eq.now(), usToTicks(50.0));
    EXPECT_EQ(fx.backend.reads_, 0u);
}

TEST(CoreModel, DirtyEvictionsReachBackend)
{
    // Write more distinct lines than a shrunken hierarchy holds so the
    // dirty data cascades L1 -> L2 -> L3 -> backend.
    CpuConfig small;
    small.l1d.sizeBytes = 4 * 1024;
    small.l2.sizeBytes = 16 * 1024;
    small.llc.sizeBytes = 64 * 1024;
    CoreFixture fx(std::make_unique<StrideWorkload>(9000, 0, true), {},
                   small);
    fx.run();
    EXPECT_GT(fx.backend.writes_, 1000u);
}

TEST(CoreModel, HintTriggersContextSwitchAndReplay)
{
    PolicyConfig pol;
    pol.deviceTriggeredCtxSwitch = true;
    auto wl = std::make_unique<StrideWorkload>(50, 2);
    CoreFixture fx(std::move(wl), pol);
    fx.backend.hintAll = true;

    // Drive manually: with every read hinted and a single thread, the
    // scheduler hands the same thread back; each hinted record replays
    // and hints again, so the run would never end. Step a bounded time
    // and check the switch machinery engaged.
    fx.sched.start(0);
    const Tick limit = usToTicks(200.0);
    while (fx.eq.now() < limit && fx.eq.step()) {
    }
    EXPECT_GT(fx.core->stats().contextSwitches, 10u);
    EXPECT_GT(fx.core->stats().squashedRecords, 0u);
    EXPECT_GT(fx.core->stats().ctxSwitchTicks, 0u);
    // Each hinted access re-issues after resume (C4): reads exceed
    // context switches.
    EXPECT_GE(fx.backend.reads_, fx.core->stats().contextSwitches);
}

TEST(CoreModel, SquashedWorkCommitsOnceThroughASmallRing)
{
    // A 3-slot ROB (a 4-record ring) with records of 1 to 3 slots, and
    // the first 30 reads hinted: each hint squashes the window and the
    // thread comes back to re-issue it, so the ring rewinds and wraps
    // many times. Every record still commits exactly once.
    PolicyConfig pol;
    pol.deviceTriggeredCtxSwitch = true;
    CpuConfig cpu;
    cpu.robEntries = 3;
    std::vector<TraceRecord> records;
    for (std::uint32_t i = 0; i < 40; ++i)
        records.push_back(
            {i % 3, false, Workload::kDataBase + (i + 1) * kPageBytes});
    CoreFixture fx(std::make_unique<ListWorkload>(std::move(records)),
                   pol, cpu);
    fx.backend.hintFirst = 30;
    fx.run();
    ASSERT_TRUE(fx.sched.allFinished());
    const CoreStats &st = fx.core->stats();
    EXPECT_GE(st.contextSwitches, 10u);
    EXPECT_GT(st.squashedRecords, st.contextSwitches);
    EXPECT_EQ(st.committedInstructions, 40u + 39u); // 40 + sum of i % 3
    EXPECT_EQ(st.committedInstructions,
              fx.workload->instructionsEmitted(0));
    EXPECT_EQ(fx.backend.reads_, 30u + 40u);
}

TEST(CoreModel, NoSwitchesWhenPolicyDisabled)
{
    PolicyConfig pol;
    pol.deviceTriggeredCtxSwitch = false;
    CoreFixture fx(std::make_unique<StrideWorkload>(50, 2), pol);
    fx.run();
    EXPECT_EQ(fx.core->stats().contextSwitches, 0u);
}

TEST(CoreModel, CoalescedMissesCompleteTogether)
{
    // Two loads to the same line: one backend read, both complete.
    class SameLine : public Workload
    {
      public:
        std::string name() const override { return "same"; }
        std::uint64_t footprintBytes() const override { return 1 << 20; }
        int numThreads() const override { return 1; }
        std::uint64_t instructionsEmitted(int) const override
        {
            return n_;
        }
        std::uint32_t
        refill(int, TraceBatch &batch) override
        {
            std::uint32_t filled = 0;
            while (filled < TraceBatch::kCapacity && n_ < 2) {
                n_++;
                batch.records[filled++] = {0, false, kDataBase};
            }
            batch.count = filled;
            batch.cursor = 0;
            return filled;
        }

      private:
        std::uint64_t n_ = 0;
    };
    CoreFixture fx(std::make_unique<SameLine>());
    fx.run();
    EXPECT_EQ(fx.backend.reads_, 1u);
    EXPECT_EQ(fx.core->stats().committedInstructions, 2u);
}

TEST(CoreModel, PenaltyDelaysExecution)
{
    auto wl = std::make_unique<StrideWorkload>(10, 0);
    CoreFixture fast(std::move(wl));
    fast.run();
    const Tick base_time = fast.eq.now();

    auto wl2 = std::make_unique<StrideWorkload>(10, 0);
    CoreFixture slow(std::move(wl2));
    slow.core->addPenalty(usToTicks(100.0));
    slow.run();
    EXPECT_GE(slow.eq.now(), base_time + usToTicks(100.0) / 2);
}

TEST(CoreModel, MultiThreadSharesCore)
{
    // Two threads on one core, no switching: the second runs after the
    // first finishes.
    class TwoThreads : public Workload
    {
      public:
        std::string name() const override { return "two"; }
        std::uint64_t footprintBytes() const override { return 1 << 20; }
        int numThreads() const override { return 2; }
        std::uint64_t instructionsEmitted(int t) const override
        {
            return n_[t];
        }
        std::uint32_t
        refill(int t, TraceBatch &batch) override
        {
            std::uint32_t filled = 0;
            while (filled < TraceBatch::kCapacity && n_[t] < 20) {
                batch.records[filled++] =
                    {3, false,
                     kDataBase + (n_[t] + (t ? 1000u : 0u)) * kPageBytes};
                n_[t] += 4;
            }
            batch.count = filled;
            batch.cursor = 0;
            return filled;
        }

      private:
        std::uint64_t n_[2] = {0, 0};
    };
    CoreFixture fx(std::make_unique<TwoThreads>());
    fx.run();
    EXPECT_TRUE(fx.sched.allFinished());
    EXPECT_TRUE(fx.threads[0]->finished());
    EXPECT_TRUE(fx.threads[1]->finished());
}

// The wake rule for MSHR stalls: a core refused for its own full L1
// MSHR file retries only after one of its own misses completes (or with
// a shootdown penalty pending); a core refused by the shared LLC MSHR
// file is retried whenever any LLC response frees a slot.

TEST(MshrWake, L1BlockedCoreRetriesOncePerOwnCompletion)
{
    // 200 cold loads, 8 L1 MSHRs: records 9..200 are each refused once,
    // then issued when an own miss frees a slot.
    CoreFixture fx(std::make_unique<StrideWorkload>(200, 0));
    ASSERT_EQ(fx.cpu.l1d.mshrs, 8u);
    fx.run();
    const CoreStats &st = fx.core->stats();
    EXPECT_EQ(st.mshrBlockedStalls, 192u);
    EXPECT_EQ(st.committedInstructions, 200u);
    EXPECT_EQ(fx.eq.now(), 400032u);
}

TEST(MshrWake, L1RefusalsDoNotDependOnOtherCoresTraffic)
{
    CoreFixture fx(std::make_unique<StreamsWorkload>(
                       std::vector<std::uint64_t>{200, 200}),
                   {}, {}, 2);
    fx.run();
    ASSERT_TRUE(fx.sched.allFinished());
    for (const auto &core : fx.cores) {
        EXPECT_EQ(core->stats().mshrBlockedStalls, 192u) << core->id();
        EXPECT_EQ(core->stats().committedInstructions, 200u) << core->id();
    }
}

TEST(MshrWake, LlcBlockedCoreIsWokenByAnotherCoresResponse)
{
    // The LLC holds as many misses as one L1: core 0 fills it at tick
    // 0, so core 1 is refused by the LLC with nothing of its own in
    // flight. Only core 0's responses can wake it.
    CpuConfig cpu;
    cpu.llc.mshrs = cpu.l1d.mshrs;
    CoreFixture fx(std::make_unique<StreamsWorkload>(
                       std::vector<std::uint64_t>{40, 40}),
                   {}, cpu, 2);
    fx.run();
    ASSERT_TRUE(fx.sched.allFinished());
    EXPECT_GT(fx.uncore.llcMshrBlocks(), 0u);
    EXPECT_EQ(fx.cores[0]->stats().committedInstructions, 40u);
    EXPECT_EQ(fx.cores[1]->stats().committedInstructions, 40u);
    // Core 0 is refused once per record past its 8th: no MSHR-free
    // broadcast retries it.
    EXPECT_EQ(fx.cores[0]->stats().mshrBlockedStalls, 32u);
}

TEST(MshrWake, PendingPenaltyIsChargedAtAnotherCoresResponse)
{
    // Core 0 is L1-blocked when a shootdown penalty lands on it; core
    // 1's fast miss answers before any of core 0's. That response's
    // MSHR-free broadcast must still wake core 0 to charge the penalty:
    // charging it at core 0's own first response finishes later.
    CoreFixture fx(std::make_unique<StreamsWorkload>(
                       std::vector<std::uint64_t>{40, 1}),
                   {}, {}, 2);
    fx.backend.coreDataLatency = {fx.backend.dataLatency, nsToTicks(100.0)};
    fx.eq.schedule(nsToTicks(50.0),
                   [&fx] { fx.core->addPenalty(usToTicks(10.0)); });
    fx.run();
    ASSERT_TRUE(fx.sched.allFinished());
    EXPECT_EQ(fx.threads[0]->finishTime(), 225612u);
    EXPECT_EQ(fx.core->stats().mshrBlockedStalls, 26u);
}

} // namespace
} // namespace skybyte
