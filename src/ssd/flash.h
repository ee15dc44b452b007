/**
 * @file
 * NAND flash channel model. Each channel serves read/program/erase
 * operations from a FIFO queue (the service discipline Algorithm 1's
 * latency estimator assumes [44]); garbage collection enqueues its
 * operations in the same FIFO, so it blocks later arrivals exactly as
 * described in §II-C.
 */

#ifndef SKYBYTE_SSD_FLASH_H
#define SKYBYTE_SSD_FLASH_H

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/event_queue.h"
#include "common/inline_function.h"

namespace skybyte {

/** NAND operation classes. */
enum class FlashOpKind { Read, Program, Erase };

/**
 * Flash-operation completion callback, fired with the completion time.
 * Move-only with a 32-byte inline buffer: every continuation captures
 * an owner pointer plus at most 16 bytes.
 */
using FlashDoneFn = InlineFunction<void(Tick), 32>;

/**
 * One NAND channel: a shared channel bus (serial; carries 4 KB page
 * transfers) in front of a pool of dies (chips x dies, parallel; each
 * executes reads/programs/erases FIFO). Reads occupy a die for tR and
 * then the bus for the transfer; programs transfer first and then hold a
 * die for tProg; erases hold a die for tBERS. Per-kind occupancy counters
 * feed the queue-based delay estimator (Algorithm 1), which — like the
 * paper's — conservatively sums full latencies of queued operations.
 */
class FlashChannel
{
  public:
    FlashChannel(int id, const FlashConfig &cfg, EventQueue &eq);

    /**
     * Enqueue an operation at time @p when; @p on_done fires at its
     * completion time, followed by the completion hook if @p hook.
     */
    void enqueue(FlashOpKind kind, Tick when, FlashDoneFn on_done,
                 bool hook = false);

    /** Set the hook (the FTL's GC check after a host program). */
    void setCompletionHook(FlashDoneFn hook) { hook_ = std::move(hook); }

    /**
     * Algorithm 1: estimated latency a read arriving at @p now would
     * see, predicted from the channel queue status. (The paper sums full
     * latencies of queued requests on a serial channel; against this
     * die-parallel channel the equivalent prediction is the completion
     * time of a hypothetical read given current die/bus occupancy.)
     */
    Tick estimateReadDelay(Tick now) const;

    /** Pending-operation counters (Algorithm 1 inputs). @{ */
    std::uint32_t pendingReads() const { return pendingReads_; }
    std::uint32_t pendingPrograms() const { return pendingPrograms_; }
    std::uint32_t pendingErases() const { return pendingErases_; }
    /** @} */

    /** A garbage collection is occupying this channel (§III-A). */
    bool gcActive() const { return gcActive_; }
    void setGcActive(bool active) { gcActive_ = active; }

    int id() const { return id_; }
    std::uint64_t completedReads() const { return reads_; }
    std::uint64_t completedPrograms() const { return programs_; }
    std::uint64_t completedErases() const { return erases_; }
    Tick busyTicks() const { return busyTicks_; }

    /** Per-kind service latency on this channel. */
    Tick latencyOf(FlashOpKind kind) const;

    /** Earliest time any die becomes free (tests / estimators). */
    Tick earliestDieFree() const { return dieFree_[pickDie()]; }

    /**
     * Die the next operation will use: the least-loaded one, the
     * lowest index among ties. The root of the winner tree, O(1).
     */
    std::size_t pickDie() const { return winner_[1]; }

  private:
    /** Recompute winner-tree node @p k from its two children. */
    void replay(std::size_t k);

    /** Set die @p die's free time and replay its path to the root. */
    void setDieFree(std::size_t die, Tick t);

    int id_;
    const FlashConfig &cfg_;
    EventQueue &eq_;
    /** Per-die free times, padded to a power of two with kTickMax. */
    std::vector<Tick> dieFree_;
    /**
     * Winner tree over dieFree_: node k holds the die of the earlier
     * free time among its children 2k and 2k+1 (the left, lower-index
     * one on ties); the leaves sit at dieFree_.size() + die.
     */
    std::vector<std::uint32_t> winner_;
    FlashDoneFn hook_;
    Tick busFree_ = 0;
    bool gcActive_ = false;
    std::uint32_t pendingReads_ = 0;
    std::uint32_t pendingPrograms_ = 0;
    std::uint32_t pendingErases_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t programs_ = 0;
    std::uint64_t erases_ = 0;
    Tick busyTicks_ = 0;
};

} // namespace skybyte

#endif // SKYBYTE_SSD_FLASH_H
