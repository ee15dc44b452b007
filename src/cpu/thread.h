/**
 * @file
 * Software thread state: the per-thread trace cursor, the ring holding
 * its ROB and squashed records (§III-A C3/C4 — a switch rewinds it, so
 * the thread resumes from the faulting instruction), and the scheduler
 * bookkeeping (CFS vruntime).
 */

#ifndef SKYBYTE_CPU_THREAD_H
#define SKYBYTE_CPU_THREAD_H

#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>

#include "common/types.h"
#include "cpu/uncore.h"
#include "trace/workload.h"

namespace skybyte {

/** One trace record in a thread's window (see ThreadContext). */
struct RobSlot
{
    TraceRecord rec;
    Tick completeAt = 0; ///< kTickMax while a miss is pending
    MissRef miss;
};

/**
 * One software thread replaying its own per-thread stream of the
 * workload trace. Its ring of RobSlots has counters head <= issued <=
 * end: [head, issued) is the ROB and [issued, end) is squashed work.
 * A fresh record enters only when issued == end, so a squash (issued =
 * head) replays the ROB, then the peeked record, then older squashed
 * work, then fresh records. Each record takes at least one of the
 * core's robEntries slots and the core peeks only while one is free,
 * so end - head <= robEntries.
 */
class ThreadContext
{
  public:
    ThreadContext(int thread_id, Workload *workload,
                  std::uint32_t rob_entries)
        : threadId_(thread_id), workload_(workload),
          robEntries_(rob_entries), mask_(std::bit_ceil(rob_entries) - 1),
          ring_(std::make_unique<RobSlot[]>(mask_ + 1))
    {
        assert(rob_entries > 0);
    }

    int threadId() const { return threadId_; }

    /**
     * Next record to issue (consumed by issue()): squashed work first,
     * then the TraceBatch, refilled by one virtual call per batch.
     * @return nullptr when the thread has fully exhausted its trace.
     */
    RobSlot *
    peek()
    {
        if (issued_ == end_) {
            if (batch_.drained()
                && workload_->refill(threadId_, batch_) == 0)
                return nullptr;
            assert(end_ - head_ < robEntries_);
            ring_[end_++ & mask_].rec = batch_.records[batch_.cursor++];
        }
        return &ring_[issued_ & mask_];
    }

    /** The peeked record entered the ROB. */
    void issue() { ++issued_; }

    /** ROB entries: issued and not yet retired. */
    std::uint64_t inFlight() const { return issued_ - head_; }
    RobSlot &inFlightAt(std::uint64_t i) { return ring_[(head_ + i) & mask_]; }

    /** Retire the ROB head, dropping its miss handle. */
    void retireHead() { ring_[head_++ & mask_].miss.reset(); }

    /** Squash the ROB (its misses released): it re-issues first. */
    void rewind() { issued_ = head_; }

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
    std::uint32_t robEntries_;
    std::uint64_t mask_;
    std::unique_ptr<RobSlot[]> ring_;
    std::uint64_t head_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t end_ = 0;
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
