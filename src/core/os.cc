#include "core/os.h"

#include <algorithm>
#include <cassert>

namespace skybyte {

CxlAwareScheduler::CxlAwareScheduler(SchedPolicy policy, std::uint64_t seed)
    : policy_(policy), rng_(seed ^ 0x05ced01eULL)
{}

void
CxlAwareScheduler::addThread(ThreadContext *thread)
{
    threads_.push_back(thread);
    runQueue_.reserve(threads_.size());
}

void
CxlAwareScheduler::setCores(std::vector<Core *> cores)
{
    cores_ = std::move(cores);
}

void
CxlAwareScheduler::start(Tick now)
{
    assert(!cores_.empty());
    std::size_t next = 0;
    for (Core *core : cores_) {
        if (next >= threads_.size())
            break;
        core->assignThread(threads_[next++], now);
    }
    for (; next < threads_.size(); ++next)
        runQueue_.push_back(threads_[next]);
}

void
CxlAwareScheduler::enqueue(ThreadContext *thread)
{
    runQueue_.push_back(thread);
}

ThreadContext *
CxlAwareScheduler::dequeue()
{
    if (runQueue_.empty())
        return nullptr;
    std::size_t idx = 0;
    switch (policy_) {
      case SchedPolicy::RoundRobin:
        idx = 0;
        break;
      case SchedPolicy::Random:
        idx = rng_.below(runQueue_.size());
        break;
      case SchedPolicy::Cfs: {
        Tick best = kTickMax;
        for (std::size_t i = 0; i < runQueue_.size(); ++i) {
            if (runQueue_[i]->vruntime() < best) {
                best = runQueue_[i]->vruntime();
                idx = i;
            }
        }
        break;
      }
    }
    ThreadContext *picked = runQueue_[idx];
    runQueue_.erase(runQueue_.begin() + static_cast<std::ptrdiff_t>(idx));
    dispatches_++;
    return picked;
}

ThreadContext *
CxlAwareScheduler::pickNext(int core_id, ThreadContext *yielding, Tick now)
{
    (void)core_id;
    if (yielding != nullptr && !yielding->finished())
        enqueue(yielding);
    ThreadContext *next = dequeue();
    // If other threads remain runnable, hand them to idle cores.
    wakeIdleCores(now);
    return next;
}

void
CxlAwareScheduler::wakeIdleCores(Tick now)
{
    for (Core *core : cores_) {
        if (runQueue_.empty())
            return;
        if (core->idle()) {
            ThreadContext *t = dequeue();
            if (t == nullptr)
                return;
            core->assignThread(t, now);
        }
    }
}

void
CxlAwareScheduler::threadFinished(ThreadContext *thread, Tick now)
{
    (void)thread;
    finishedCount_++;
    lastFinish_ = std::max(lastFinish_, now);
}

} // namespace skybyte
