/**
 * @file
 * Software thread state: the per-thread trace cursor, the replay buffer
 * that receives squashed records on a coordinated context switch
 * (§III-A C3/C4 — the thread resumes from the faulting instruction), and
 * the scheduler bookkeeping (CFS vruntime).
 */

#ifndef SKYBYTE_CPU_THREAD_H
#define SKYBYTE_CPU_THREAD_H

#include <cstdint>
#include <deque>

#include "common/types.h"
#include "trace/workload.h"

namespace skybyte {

/**
 * One software thread replaying its own per-thread stream of the
 * workload trace.
 */
class ThreadContext
{
  public:
    ThreadContext(int thread_id, Workload *workload)
        : threadId_(thread_id), workload_(workload)
    {}

    int threadId() const { return threadId_; }

    /**
     * Next record to execute: the replay buffer (squashed work) first,
     * then fresh trace records. Fresh records come from a per-thread
     * TraceBatch, so the common case is an inline array walk; the
     * workload's virtual refill() runs once per batch. Prefetched
     * records waiting in the batch were never issued, so a squash never
     * touches them — only ROB/pending records go back through unfetch().
     * @retval false when the thread has fully exhausted its trace.
     */
    bool
    fetch(TraceRecord &rec)
    {
        if (!replay_.empty()) {
            rec = replay_.front();
            replay_.pop_front();
            return true;
        }
        if (batch_.drained() && workload_->refill(threadId_, batch_) == 0)
            return false;
        rec = batch_.records[batch_.cursor++];
        return true;
    }

    /**
     * Return squashed records (oldest first) to the front of the stream
     * so the thread re-executes from the faulting instruction.
     */
    void
    unfetch(const std::deque<TraceRecord> &records)
    {
        replay_.insert(replay_.begin(), records.begin(), records.end());
    }

    /** Prepend a single record (the faulting access itself). */
    void unfetchOne(const TraceRecord &rec) { replay_.push_front(rec); }

    bool finished() const { return finished_; }
    void markFinished() { finished_ = true; }

    /** CFS virtual runtime (issued instruction slots as proxy). */
    Tick vruntime() const { return vruntime_; }
    void addVruntime(Tick t) { vruntime_ += t; }

    /** Monotonic functional store counter for this thread. */
    LineValue nextStoreValue() { return ++storeSeq_; }

    /** Simulation time at which the thread finished (0 if running). */
    Tick finishTime() const { return finishTime_; }
    void setFinishTime(Tick t) { finishTime_ = t; }

  private:
    int threadId_;
    Workload *workload_;
    TraceBatch batch_;
    std::deque<TraceRecord> replay_;
    bool finished_ = false;
    Tick vruntime_ = 0;
    LineValue storeSeq_ = 0;
    Tick finishTime_ = 0;
};

/**
 * Scheduling interface the core uses to hand threads back to the OS.
 * Implemented by the CXL-aware scheduler in src/core/os.h.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /**
     * Yield @p yielding (may be nullptr when the previous thread
     * finished) and pick the next runnable thread for @p core_id, or
     * nullptr if none is available (core goes idle).
     */
    virtual ThreadContext *pickNext(int core_id, ThreadContext *yielding,
                                    Tick now) = 0;

    /** Notify that @p thread exhausted its trace at @p now. */
    virtual void threadFinished(ThreadContext *thread, Tick now) = 0;
};

} // namespace skybyte

#endif // SKYBYTE_CPU_THREAD_H
