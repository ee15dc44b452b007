/**
 * @file
 * Tests for the CXL-aware scheduler (§III-A): RR / Random / CFS policies,
 * yield re-enqueueing, idle-core wakeup, and finish bookkeeping.
 *
 * pickNext() enqueues the yielder and pops one thread, so a depth >1 run
 * queue is built via start() with fewer cores than threads.
 */

#include <gtest/gtest.h>

#include "core/os.h"
#include "cpu/core.h"
#include "mem/dram.h"
#include "trace/workload.h"

namespace skybyte {
namespace {

struct SchedFixture
{
    explicit SchedFixture(SchedPolicy policy, std::uint64_t seed = 1,
                          int num_threads = 6)
        : dram(eq, HostDramConfig{}), uncore(cpu_cfg, eq, dram),
          sched(policy, seed)
    {
        WorkloadParams p;
        p.numThreads = num_threads;
        p.instrPerThread = 1000;
        p.footprintBytes = 1024 * 1024;
        workload = makeWorkload("uniform", p);
        for (int i = 0; i < num_threads; ++i)
            threads.push_back(
                std::make_unique<ThreadContext>(i, workload.get(),
                                                cpu_cfg.robEntries));
        core = std::make_unique<Core>(0, cpu_cfg, policy_cfg, eq, uncore);
        core->setScheduler(&sched);
        sched.setCores({core.get()});
        for (auto &t : threads)
            sched.addThread(t.get());
    }

    EventQueue eq;
    CpuConfig cpu_cfg;
    PolicyConfig policy_cfg;
    DramModel dram;
    Uncore uncore;
    CxlAwareScheduler sched;
    std::unique_ptr<Workload> workload;
    std::vector<std::unique_ptr<ThreadContext>> threads;
    std::unique_ptr<Core> core;
};

TEST(Scheduler, StartDispatchesAndQueuesRest)
{
    SchedFixture fx(SchedPolicy::RoundRobin);
    fx.sched.start(0);
    // One core took t0; the other five queued.
    EXPECT_EQ(fx.core->currentThread(), fx.threads[0].get());
    EXPECT_EQ(fx.sched.runQueueDepth(), 5u);
}

TEST(Scheduler, RoundRobinIsFifo)
{
    SchedFixture fx(SchedPolicy::RoundRobin);
    fx.sched.start(0); // queue: t1..t5
    ThreadContext *a = fx.sched.pickNext(0, fx.threads[0].get(), 0);
    EXPECT_EQ(a, fx.threads[1].get()); // FIFO head
    ThreadContext *b = fx.sched.pickNext(0, a, 0);
    EXPECT_EQ(b, fx.threads[2].get());
    // Yielded threads go to the back; continue cycling until t0
    // resurfaces in FIFO order.
    ThreadContext *c = fx.sched.pickNext(0, b, 0);
    EXPECT_EQ(c, fx.threads[3].get());
    ThreadContext *d = fx.sched.pickNext(0, c, 0);
    EXPECT_EQ(d, fx.threads[4].get());
    ThreadContext *e = fx.sched.pickNext(0, d, 0);
    EXPECT_EQ(e, fx.threads[5].get());
    ThreadContext *f = fx.sched.pickNext(0, e, 0);
    EXPECT_EQ(f, fx.threads[0].get());
}

TEST(Scheduler, CfsPicksSmallestVruntime)
{
    SchedFixture fx(SchedPolicy::Cfs);
    fx.sched.start(0); // queue: t1..t5
    fx.threads[0]->addVruntime(600);
    fx.threads[1]->addVruntime(500);
    fx.threads[2]->addVruntime(50);
    fx.threads[3]->addVruntime(700);
    fx.threads[4]->addVruntime(5);
    fx.threads[5]->addVruntime(900);
    ThreadContext *got = fx.sched.pickNext(0, fx.threads[0].get(), 0);
    EXPECT_EQ(got, fx.threads[4].get()); // vruntime 5
    got->addVruntime(600);               // it "ran" for a while
    got = fx.sched.pickNext(0, got, 0);
    EXPECT_EQ(got, fx.threads[2].get()); // vruntime 50
}

TEST(Scheduler, CfsMayRepickTheYieldingThread)
{
    // The paper notes CFS can re-select the thread that just yielded
    // when it still has the shortest received execution time.
    SchedFixture fx(SchedPolicy::Cfs);
    fx.sched.start(0);
    for (int i = 1; i <= 5; ++i)
        fx.threads[static_cast<std::size_t>(i)]->addVruntime(1000);
    ThreadContext *got = fx.sched.pickNext(0, fx.threads[0].get(), 0);
    EXPECT_EQ(got, fx.threads[0].get());
}

TEST(Scheduler, RandomIsSeedDeterministic)
{
    SchedFixture a(SchedPolicy::Random, 42);
    SchedFixture b(SchedPolicy::Random, 42);
    a.sched.start(0);
    b.sched.start(0);
    ThreadContext *ta = a.threads[0].get();
    ThreadContext *tb = b.threads[0].get();
    for (int i = 0; i < 40; ++i) {
        ta = a.sched.pickNext(0, ta, 0);
        tb = b.sched.pickNext(0, tb, 0);
        ASSERT_NE(ta, nullptr);
        EXPECT_EQ(ta->threadId(), tb->threadId());
    }
}

TEST(Scheduler, RandomCoversTheQueue)
{
    SchedFixture fx(SchedPolicy::Random, 7);
    fx.sched.start(0);
    std::set<int> seen;
    ThreadContext *t = fx.threads[0].get();
    for (int i = 0; i < 100; ++i) {
        t = fx.sched.pickNext(0, t, 0);
        seen.insert(t->threadId());
    }
    EXPECT_EQ(seen.size(), 6u);
}

TEST(Scheduler, FinishedThreadIsNotRequeued)
{
    SchedFixture fx(SchedPolicy::RoundRobin);
    fx.sched.start(0);
    fx.threads[0]->markFinished();
    fx.sched.pickNext(0, fx.threads[0].get(), 0);
    EXPECT_EQ(fx.sched.runQueueDepth(), 4u); // popped one, added none
}

TEST(Scheduler, EmptyQueueReturnsNull)
{
    SchedFixture fx(SchedPolicy::Cfs, 1, 1);
    fx.sched.start(0); // single thread went straight to the core
    EXPECT_EQ(fx.sched.pickNext(0, nullptr, 0), nullptr);
}

TEST(Scheduler, FinishBookkeeping)
{
    SchedFixture fx(SchedPolicy::Cfs);
    EXPECT_FALSE(fx.sched.allFinished());
    for (std::size_t i = 0; i < fx.threads.size(); ++i)
        fx.sched.threadFinished(fx.threads[i].get(),
                                100 * (static_cast<Tick>(i) + 1));
    EXPECT_TRUE(fx.sched.allFinished());
    EXPECT_EQ(fx.sched.lastFinishTime(), 600u);
}

TEST(Scheduler, WakesIdleCoresWhenWorkAppears)
{
    SchedFixture fx(SchedPolicy::RoundRobin, 1, 3);
    // Core idle, queue empty.
    EXPECT_TRUE(fx.core->idle());
    fx.sched.start(0);
    // start() assigned t0 to the core.
    EXPECT_FALSE(fx.core->idle());
}

} // namespace
} // namespace skybyte
