#include "cpu/uncore.h"

#include "cpu/core.h"

namespace skybyte {

Uncore::Uncore(const CpuConfig &cfg, EventQueue &eq, MemoryBackend &backend,
               bool payload)
    : eq_(eq), backend_(backend), l3_(cfg.llc, payload),
      mshrCapacity_(cfg.llc.mshrs)
{}

UncoreLoadResult
Uncore::load(const MissRef &status, Tick when)
{
    const Addr line = status->lineAddr;
    if (l3_.access(line, false, 0, &status->value))
        return UncoreLoadResult::HitL3;

    llcMisses_++;
    if (auto *waiters = inFlight_.find(line)) {
        waiters->push_back(status);
        llcCoalesced_++;
        return UncoreLoadResult::Pending;
    }
    if (inFlight_.size() >= mshrCapacity_) {
        llcMshrBlocks_++;
        return UncoreLoadResult::MshrBlocked;
    }
    inFlight_[line].push_back(status);

    MemRequest req;
    req.lineAddr = line;
    req.isWrite = false;
    req.coreId = status->owner != nullptr ? status->owner->id() : -1;
    backend_.read(req, when, [this, line](const MemResponse &resp) {
        onResponse(line, resp);
    });
    return UncoreLoadResult::Pending;
}

void
Uncore::writebackToL3(Addr line_addr, LineValue value, Tick when)
{
    CacheResult res = l3_.fill(line_addr, true, value);
    if (res.writeback) {
        MemRequest req;
        req.lineAddr = res.victimAddr;
        req.isWrite = true;
        req.value = res.victimValue;
        backend_.write(req, when);
    }
}

void
Uncore::onResponse(Addr line_addr, const MemResponse &resp)
{
    // Detach the waiter list before completing anyone: a completion
    // callback may re-enter load() and mutate the table.
    std::vector<MissRef> waiters;
    if (auto *entry = inFlight_.find(line_addr)) {
        waiters = std::move(*entry);
        inFlight_.erase(line_addr);
    }
    const Tick now = eq_.now();

    if (waiters.empty()) {
        wakeBlockedCores();
        return;
    }

    if (resp.kind == MemResponseKind::Data) {
        CacheResult res = l3_.fill(line_addr, false, resp.value);
        if (res.writeback) {
            MemRequest wb;
            wb.lineAddr = res.victimAddr;
            wb.isWrite = true;
            wb.value = res.victimValue;
            backend_.write(wb, now);
        }
        for (auto &st : waiters) {
            st->value = resp.value;
            offchip_.record(now - st->issuedAt);
            if (!tenantOffchip_.empty()) {
                const int t = tenantOf_(st->lineAddr);
                if (t >= 0
                    && static_cast<std::size_t>(t)
                           < tenantOffchip_.size()) {
                    tenantOffchip_[static_cast<std::size_t>(t)].record(
                        now - st->issuedAt);
                }
            }
            if (st->owner != nullptr) {
                st->owner->onMissData(st, now);
            } else {
                st->done = true;
                st->doneAt = now;
            }
        }
    } else {
        for (auto &st : waiters) {
            if (st->owner != nullptr)
                st->owner->onMissHint(st, now);
            else
                st->hinted = true;
        }
    }
    wakeBlockedCores();
}

void
Uncore::wakeBlockedCores()
{
    for (Core *core : cores_)
        core->onMshrFree(eq_.now());
}

} // namespace skybyte
