/**
 * @file
 * The CXL-aware OS thread scheduler (§III-A). When a core raises the
 * SkyByte Long Delay Exception its handler yields the CPU and asks this
 * scheduler for the next runnable thread under one of the three policies
 * the paper evaluates (Figure 10): Round-Robin, Random, or CFS
 * (smallest received execution time first). Yielded threads re-enter the
 * run queue, so they are scheduled again later (§III-A "OS support").
 */

#ifndef SKYBYTE_CORE_OS_H
#define SKYBYTE_CORE_OS_H

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "cpu/core.h"
#include "cpu/thread.h"

namespace skybyte {

/**
 * Global run queue + policy. One instance serves all cores.
 */
class CxlAwareScheduler : public Scheduler
{
  public:
    CxlAwareScheduler(SchedPolicy policy, std::uint64_t seed);

    /** Register a thread (before start()); reserves its run-queue spot. */
    void addThread(ThreadContext *thread);

    /** Register the cores (before start()). */
    void setCores(std::vector<Core *> cores);

    /** Dispatch initial threads onto cores at time @p now. */
    void start(Tick now);

    ThreadContext *pickNext(int core_id, ThreadContext *yielding,
                            Tick now) override;

    void threadFinished(ThreadContext *thread, Tick now) override;

    bool
    allFinished() const
    {
        return finishedCount_ == threads_.size();
    }

    /** Latest thread completion time (the run's execution time). */
    Tick lastFinishTime() const { return lastFinish_; }

    std::size_t runQueueDepth() const { return runQueue_.size(); }
    std::uint64_t dispatches() const { return dispatches_; }

  private:
    void enqueue(ThreadContext *thread);
    ThreadContext *dequeue();
    void wakeIdleCores(Tick now);

    SchedPolicy policy_;
    Rng rng_;
    std::vector<ThreadContext *> threads_;
    std::vector<Core *> cores_;
    /** Runnable threads; holds each at most once, so never reallocates. */
    std::vector<ThreadContext *> runQueue_;
    std::size_t finishedCount_ = 0;
    Tick lastFinish_ = 0;
    std::uint64_t dispatches_ = 0;
};

} // namespace skybyte

#endif // SKYBYTE_CORE_OS_H
