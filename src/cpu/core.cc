#include "cpu/core.h"

#include <algorithm>

namespace skybyte {

Core::Core(int core_id, const CpuConfig &cfg, const PolicyConfig &policy,
           EventQueue &eq, Uncore &uncore, bool payload)
    : coreId_(core_id), cfg_(cfg), policy_(policy), eq_(eq),
      uncore_(uncore), l1_(cfg.l1d, payload), l2_(cfg.l2, payload),
      l1Mshrs_(cfg.l1d.mshrs)
{
    uncore.addCore(this);
}

void
Core::assignThread(ThreadContext *thread, Tick now)
{
    if (state_ != State::Idle || thread == nullptr)
        return;
    if (now > idleSince_)
        stats_.idleTicks += now - idleSince_;
    cursor_ = std::max(cursor_, now);
    thread_ = thread;
    state_ = State::Running;
    scheduleRun(cursor_);
}

void
Core::scheduleRun(Tick when)
{
    if (runScheduled_)
        return;
    runScheduled_ = true;
    eq_.schedule(when, [this] {
        runScheduled_ = false;
        if (state_ != State::Running)
            return;
        cursor_ = std::max(cursor_, eq_.now());
        runLoop();
    });
}

Tick
Core::headCompleteAt() const
{
    const RobSlot &head = thread_->inFlightAt(0);
    if (head.miss)
        return head.miss->done ? head.miss->doneAt : kTickMax;
    return head.completeAt;
}

void
Core::retire()
{
    while (thread_->inFlight() != 0 && headCompleteAt() <= cursor_) {
        const std::uint32_t slots = thread_->inFlightAt(0).rec.computeOps + 1;
        stats_.committedInstructions += slots;
        robSlotsUsed_ -= slots;
        thread_->retireHead();
    }
}

void
Core::fillLocal(Addr line, LineValue value, Tick now)
{
    // Fill L2 first so the L1 victim (if dirty) lands behind it in LRU.
    CacheResult r2 = l2_.fill(line, false, value);
    if (r2.writeback)
        uncore_.writebackToL3(r2.victimAddr, r2.victimValue, now);
    CacheResult r1 = l1_.fill(line, false, value);
    if (r1.writeback) {
        CacheResult cascade = l2_.fill(r1.victimAddr, true, r1.victimValue);
        if (cascade.writeback) {
            uncore_.writebackToL3(cascade.victimAddr, cascade.victimValue,
                                  now);
        }
    }
}

bool
Core::issueMem(RobSlot &slot, Tick t)
{
    const TraceRecord &rec = slot.rec;
    const Addr line = lineAlign(rec.vaddr);

    if (rec.isWrite) {
        // Trace-driven stores allocate without a demand fetch (no RFO);
        // the dirty data reaches the SSD via LLC writebacks, matching the
        // paper's accounting where CXL-SSD writes never stall or hint.
        const LineValue v = thread_->nextStoreValue();
        if (!l1_.access(line, true, v)) {
            CacheResult r1 = l1_.fill(line, true, v);
            if (r1.writeback) {
                CacheResult c =
                    l2_.fill(r1.victimAddr, true, r1.victimValue);
                if (c.writeback) {
                    uncore_.writebackToL3(c.victimAddr, c.victimValue, t);
                }
            }
        }
        slot.completeAt = t + cfg_.l1d.hitLatency;
        return true;
    }

    if (l1_.access(line, false)) {
        slot.completeAt = t + cfg_.l1d.hitLatency;
        return true;
    }
    LineValue l2_value = 0;
    if (l2_.access(line, false, 0, &l2_value)) {
        CacheResult r1 = l1_.fill(line, false, l2_value);
        if (r1.writeback) {
            CacheResult c = l2_.fill(r1.victimAddr, true, r1.victimValue);
            if (c.writeback)
                uncore_.writebackToL3(c.victimAddr, c.victimValue, t);
        }
        slot.completeAt = t + cfg_.l2.hitLatency;
        return true;
    }

    // LLC-bound. Reserve an L1 MSHR unless this line coalesces onto an
    // in-flight one.
    const bool coalesced = l1Mshrs_.contains(line);
    if (!coalesced && l1Mshrs_.full()) {
        state_ = State::StalledL1Mshr;
        return false;
    }

    MissRef status = uncore_.makeMiss();
    status->lineAddr = line;
    status->owner = this;
    status->issuedAt = t;

    switch (uncore_.load(status, t)) {
      case UncoreLoadResult::HitL3:
        fillLocal(line, status->value, t);
        slot.completeAt = t + cfg_.llc.hitLatency;
        return true;
      case UncoreLoadResult::Pending:
        if (!coalesced) {
            l1Mshrs_.allocate(line);
            status->l1MshrHeld = true;
        }
        slot.miss = std::move(status);
        slot.completeAt = kTickMax;
        return true;
      case UncoreLoadResult::MshrBlocked:
        state_ = State::StalledLlcMshr;
        return false;
    }
    return false;
}

void
Core::runLoop()
{
    const Tick quantum_end = eq_.now() + kQuantumTicks;
    while (true) {
        retire();

        if (pendingPenalty_ > 0) {
            stats_.memStallTicks += pendingPenalty_;
            cursor_ += pendingPenalty_;
            pendingPenalty_ = 0;
        }

        // A full window takes no record (each needs a slot), so the
        // thread's ring never holds more than robEntries records.
        if (robSlotsUsed_ >= cfg_.robEntries) {
            if (!waitOnHead(quantum_end))
                return;
            continue;
        }

        RobSlot *next = thread_->peek();
        if (next == nullptr) {
            // Trace exhausted: drain the ROB, then finish.
            if (thread_->inFlight() == 0) {
                threadDone();
                return;
            }
            if (!waitOnHead(quantum_end))
                return;
            continue;
        }

        const std::uint32_t slots = next->rec.computeOps + 1;
        if (thread_->inFlight() != 0
            && robSlotsUsed_ + slots > cfg_.robEntries) {
            if (!waitOnHead(quantum_end))
                return;
            continue;
        }

        const Tick issue_end = cursor_ + slots;
        if (!issueMem(*next, issue_end)) {
            stats_.mshrBlockedStalls++;
            return; // woken by onMshrFree / own completions
        }
        thread_->issue();
        robSlotsUsed_ += slots;
        stats_.computeTicks += slots;
        thread_->addVruntime(slots);
        cursor_ = issue_end;

        if (cursor_ >= quantum_end) {
            scheduleRun(cursor_);
            return;
        }
    }
}

bool
Core::waitOnHead(Tick quantum_end)
{
    const Tick t = headCompleteAt();
    if (t == kTickMax) {
        const RobSlot &head = thread_->inFlightAt(0);
        if (head.miss->hinted && policy_.deviceTriggeredCtxSwitch) {
            doContextSwitch();
            return false;
        }
        state_ = State::StalledMem;
        return false; // woken by onMissData / onMissHint
    }
    stats_.memStallTicks += t - cursor_;
    cursor_ = t;
    if (cursor_ >= quantum_end) {
        scheduleRun(cursor_);
        return false;
    }
    return true;
}

void
Core::squash()
{
    const std::uint64_t n = thread_->inFlight();
    for (std::uint64_t i = 0; i < n; ++i) {
        RobSlot &slot = thread_->inFlightAt(i);
        stats_.squashedRecords++;
        if (slot.miss && !slot.miss->done) {
            slot.miss->orphaned = true;
            if (cfg_.freeMshrOnSquash && slot.miss->l1MshrHeld) {
                l1Mshrs_.release(slot.miss->lineAddr);
                slot.miss->l1MshrHeld = false;
            }
        }
        slot.miss.reset();
    }
    thread_->rewind();
    robSlotsUsed_ = 0;
}

void
Core::doContextSwitch()
{
    stats_.contextSwitches++;
    squash();
    ThreadContext *next = scheduler_->pickNext(coreId_, thread_, cursor_);
    stats_.ctxSwitchTicks += policy_.ctxSwitchOverhead;
    cursor_ += policy_.ctxSwitchOverhead;
    thread_ = next;
    if (thread_ == nullptr) {
        enterIdle();
        return;
    }
    state_ = State::Running;
    scheduleRun(cursor_);
}

void
Core::threadDone()
{
    thread_->markFinished();
    thread_->setFinishTime(cursor_);
    scheduler_->threadFinished(thread_, cursor_);
    ThreadContext *next = scheduler_->pickNext(coreId_, nullptr, cursor_);
    if (next == nullptr) {
        enterIdle();
        return;
    }
    thread_ = next;
    stats_.ctxSwitchTicks += policy_.ctxSwitchOverhead;
    cursor_ += policy_.ctxSwitchOverhead;
    state_ = State::Running;
    scheduleRun(cursor_);
}

void
Core::enterIdle()
{
    state_ = State::Idle;
    thread_ = nullptr;
    idleSince_ = cursor_;
}

void
Core::wake(Tick now)
{
    if (now > cursor_) {
        stats_.memStallTicks += now - cursor_;
        cursor_ = now;
    }
    state_ = State::Running;
    runLoop();
}

void
Core::onMissData(const MissRef &status, Tick now)
{
    status->done = true;
    status->doneAt = now;
    if (status->l1MshrHeld) {
        l1Mshrs_.release(status->lineAddr);
        status->l1MshrHeld = false;
    }
    if (!status->orphaned)
        fillLocal(status->lineAddr, status->value, now);
    if (stalled())
        wake(now);
}

void
Core::onMissHint(const MissRef &status, Tick now)
{
    status->hinted = true;
    if (status->l1MshrHeld) {
        l1Mshrs_.release(status->lineAddr);
        status->l1MshrHeld = false;
    }
    if (stalled())
        wake(now);
}

} // namespace skybyte
