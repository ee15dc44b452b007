#include "ssd/flash.h"

#include <algorithm>
#include <bit>

namespace skybyte {

FlashChannel::FlashChannel(int id, const FlashConfig &cfg, EventQueue &eq)
    : id_(id), cfg_(cfg), eq_(eq)
{
    const std::size_t dies = std::max<std::size_t>(
        static_cast<std::size_t>(cfg.chipsPerChannel) * cfg.diesPerChip
            * std::max(cfg.planesPerDie, 1u),
        1);
    // Padding dies never win: a real die's free time is below
    // kTickMax, or ties it with a lower index.
    const std::size_t leaves = std::bit_ceil(dies);
    dieFree_.assign(leaves, kTickMax);
    std::fill_n(dieFree_.begin(), dies, 0);
    winner_.assign(2 * leaves, 0);
    for (std::size_t d = 0; d < leaves; ++d)
        winner_[leaves + d] = static_cast<std::uint32_t>(d);
    for (std::size_t k = leaves - 1; k >= 1; --k)
        replay(k);
}

Tick
FlashChannel::latencyOf(FlashOpKind kind) const
{
    switch (kind) {
      case FlashOpKind::Read:
        return cfg_.timing.readLatency + cfg_.pageTransferTime;
      case FlashOpKind::Program:
        return cfg_.timing.programLatency + cfg_.pageTransferTime;
      case FlashOpKind::Erase:
        return cfg_.timing.eraseLatency;
    }
    return 0;
}

void
FlashChannel::replay(std::size_t k)
{
    const std::uint32_t l = winner_[2 * k], r = winner_[2 * k + 1];
    winner_[k] = dieFree_[r] < dieFree_[l] ? r : l;
}

void
FlashChannel::setDieFree(std::size_t die, Tick t)
{
    dieFree_[die] = t;
    for (std::size_t k = (dieFree_.size() + die) / 2; k >= 1; k /= 2)
        replay(k);
}

void
FlashChannel::enqueue(FlashOpKind kind, Tick when, FlashDoneFn on_done,
                      bool hook)
{
    const std::size_t die = pickDie();
    Tick done = when;
    switch (kind) {
      case FlashOpKind::Read: {
        // Cell read on the die, then the page crosses the channel bus.
        const Tick cell_start = std::max(when, dieFree_[die]);
        const Tick cell_done = cell_start + cfg_.timing.readLatency;
        const Tick bus_start = std::max(cell_done, busFree_);
        done = bus_start + cfg_.pageTransferTime;
        busFree_ = done;
        setDieFree(die, done); // die holds the data until transfer ends
        pendingReads_++;
        busyTicks_ += done - cell_start;
        break;
      }
      case FlashOpKind::Program: {
        // Page crosses the bus into the die, then the die programs.
        const Tick bus_start = std::max(when, busFree_);
        const Tick bus_done = bus_start + cfg_.pageTransferTime;
        busFree_ = bus_done;
        const Tick cell_start = std::max(bus_done, dieFree_[die]);
        done = cell_start + cfg_.timing.programLatency;
        setDieFree(die, done);
        pendingPrograms_++;
        busyTicks_ += done - bus_start;
        break;
      }
      case FlashOpKind::Erase: {
        const Tick start = std::max(when, dieFree_[die]);
        done = start + cfg_.timing.eraseLatency;
        setDieFree(die, done);
        pendingErases_++;
        busyTicks_ += done - start;
        break;
      }
    }
    eq_.schedule(done, [this, kind, hook, done,
                        cb = std::move(on_done)]() mutable {
        switch (kind) {
          case FlashOpKind::Read:
            pendingReads_--;
            reads_++;
            break;
          case FlashOpKind::Program:
            pendingPrograms_--;
            programs_++;
            break;
          case FlashOpKind::Erase:
            pendingErases_--;
            erases_++;
            break;
        }
        if (cb)
            cb(done);
        if (hook)
            hook_(done);
    });
}

Tick
FlashChannel::estimateReadDelay(Tick now) const
{
    // Algorithm 1: predict the delay of a newly arriving read from the
    // channel queue status (die availability + bus backlog).
    const Tick cell_start = std::max(now, earliestDieFree());
    const Tick cell_done = cell_start + cfg_.timing.readLatency;
    const Tick bus_start = std::max(cell_done, busFree_);
    return bus_start + cfg_.pageTransferTime - now;
}

} // namespace skybyte
