/**
 * @file
 * Trace-driven core model (Table II: 4-wide, 256-entry ROB, private
 * L1D/L2, 4 GHz).
 *
 * The core consumes TraceRecords ("k compute ops + 1 memory op"), issuing
 * one instruction per tick (4-wide at 4 GHz) into a ROB window held in
 * the thread's ring (a record takes computeOps + 1 slots). Memory
 * ops probe L1/L2 functionally; LLC-bound loads go to the Uncore and
 * complete via callback. The core stalls when the ROB head is incomplete
 * and the window is full; stall time is attributed to memory-boundedness
 * exactly as the paper's VTune-style definition (Fig 4).
 *
 * Coordinated context switches (§III-A): when a blocking ROB head carries
 * a SkyByte-Delay hint, the core raises the Long Delay Exception, squashes
 * un-retired records by rewinding the thread's ring, optionally frees its
 * L1 MSHRs, charges the OS switch overhead and asks the scheduler for the
 * next thread.
 *
 * MSHR stalls record their reason. A core refused for a full L1 MSHR
 * file (StalledL1Mshr) is woken only by its own completions
 * (onMissData/onMissHint), while one refused by the LLC MSHR file
 * (StalledLlcMshr) is also woken by the uncore's onMshrFree broadcast.
 * Skipping the broadcast for an L1-blocked core changes no result:
 *  - A refused L1 issue changes no cache state (a miss does not touch
 *    LRU, MshrFile::contains is read-only) and schedules no event.
 *  - Only the core's own completions free its L1 MSHRs or bring a line
 *    into its L1/L2, and those wake it themselves.
 *  - A skipped wake would only have set cursor_ = max(cursor_, now) and
 *    retired ROB entries early; the next real wake does the same, and
 *    memStallTicks telescopes to the same total. Core stats are read
 *    only after drain.
 *  - A pending addPenalty is charged at the first wake after it is
 *    added, so onMshrFree still wakes an L1-blocked core that has one.
 * Only unreported counters differ from waking every blocked core:
 * CoreStats::mshrBlockedStalls and the per-core L1/L2 misses().
 */

#ifndef SKYBYTE_CPU_CORE_H
#define SKYBYTE_CPU_CORE_H

#include <memory>

#include "common/config.h"
#include "common/event_queue.h"
#include "cpu/cache.h"
#include "cpu/thread.h"
#include "cpu/uncore.h"

namespace skybyte {

/** Per-core timing and event statistics. */
struct CoreStats
{
    Tick computeTicks = 0;
    Tick memStallTicks = 0;
    Tick ctxSwitchTicks = 0;
    Tick idleTicks = 0;
    std::uint64_t committedInstructions = 0;
    std::uint64_t issuedInstructions = 0;
    std::uint64_t contextSwitches = 0;
    std::uint64_t squashedRecords = 0;
    /**
     * Issue attempts refused for a full L1 or LLC MSHR file. Not part
     * of SimResult. Other cores' LLC responses do not retry an
     * L1-blocked core, so this count, like the per-core L1/L2
     * misses(), does not include such doomed retries.
     */
    std::uint64_t mshrBlockedStalls = 0;
};

/**
 * One CPU core.
 */
class Core
{
  public:
    /** @param payload L1/L2 keep line values (SimConfig::audit) */
    Core(int core_id, const CpuConfig &cfg, const PolicyConfig &policy,
         EventQueue &eq, Uncore &uncore, bool payload = true);

    int id() const { return coreId_; }

    /** The OS must be attached before any thread runs. */
    void setScheduler(Scheduler *sched) { scheduler_ = sched; }

    /** Assign a thread and (if idle) start executing it at @p now. */
    void assignThread(ThreadContext *thread, Tick now);

    bool idle() const { return state_ == State::Idle; }
    ThreadContext *currentThread() const { return thread_; }

    /** Uncore callbacks. @{ */
    void onMissData(const MissRef &status, Tick now);
    void onMissHint(const MissRef &status, Tick now);
    void onMshrFree(Tick now);
    /** @} */

    /**
     * Charge a one-off pipeline penalty (e.g., TLB shootdown when a page
     * migration completes, §V). Applied before the next instruction.
     */
    void addPenalty(Tick ticks) { pendingPenalty_ += ticks; }

    const CoreStats &stats() const { return stats_; }
    const SetAssocCache &l1() const { return l1_; }
    const SetAssocCache &l2() const { return l2_; }

  private:
    enum class State
    {
        Idle,
        Running,
        StalledMem,     ///< ROB head waits on a miss
        StalledL1Mshr,  ///< refused: this core's L1 MSHR file is full
        StalledLlcMshr, ///< refused: the shared LLC MSHR file is full
        Switching
    };

    /** Main execution loop; runs until stalled or quantum expires. */
    void runLoop();

    /** Waiting on memory or refused by an MSHR file. */
    bool
    stalled() const
    {
        return state_ == State::StalledMem || state_ == State::StalledL1Mshr
               || state_ == State::StalledLlcMshr;
    }

    /** Resume from a stall at @p now, accounting the stalled interval. */
    void wake(Tick now);

    /** Retire all completed head entries at local time cursor_. */
    void retire();

    /**
     * Handle a blocking ROB head: context switch on a hinted miss, sleep
     * on a pending one, or advance time to a known completion.
     * @retval true to keep executing in the current loop iteration.
     */
    bool waitOnHead(Tick quantum_end);

    Tick headCompleteAt() const;

    /**
     * Issue the memory op of @p slot's record at time @p t, setting its
     * completion time or miss.
     * @retval false if blocked on an MSHR (the record stays unissued);
     *         state_ then holds the stall reason.
     */
    bool issueMem(RobSlot &slot, Tick t);

    /**
     * Fill @p line, holding the loaded @p value, clean into L1/L2,
     * cascading dirty victims downwards.
     */
    void fillLocal(Addr line, LineValue value, Tick now);

    /** Raise the Long Delay Exception and switch threads (§III-A C3). */
    void doContextSwitch();

    /** Squash the un-retired records: the thread re-issues them. */
    void squash();

    /** Current thread ended; pick another or go idle. */
    void threadDone();

    void scheduleRun(Tick when);
    void enterIdle();

    int coreId_;
    const CpuConfig &cfg_;
    const PolicyConfig &policy_;
    EventQueue &eq_;
    Uncore &uncore_;
    Scheduler *scheduler_ = nullptr;

    SetAssocCache l1_;
    SetAssocCache l2_;
    MshrFile l1Mshrs_;

    ThreadContext *thread_ = nullptr;
    State state_ = State::Idle;
    Tick cursor_ = 0;       ///< core-local time (>= last event time)
    Tick idleSince_ = 0;
    std::uint32_t robSlotsUsed_ = 0; ///< of the current thread's ROB
    Tick pendingPenalty_ = 0;
    bool runScheduled_ = false;

    CoreStats stats_;

    /** Causality quantum: max ticks to run ahead of the event queue. */
    static constexpr Tick kQuantumTicks = 4096; // 256 ns
};

} // namespace skybyte

#endif // SKYBYTE_CPU_CORE_H
