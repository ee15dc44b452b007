#include "cpu/uncore.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "cpu/core.h"
#include "trace/tenant_map.h"

namespace skybyte {

Uncore::Uncore(const CpuConfig &cfg, EventQueue &eq, MemoryBackend &backend,
               bool payload, TenantMap *tenants)
    : eq_(eq), backend_(backend), l3_(cfg.llc, payload),
      slots_(cfg.llc.mshrs), slotOrder_(cfg.llc.mshrs), tenants_(tenants)
{
    liveLines_.reserve(cfg.llc.mshrs);
    std::iota(slotOrder_.begin(), slotOrder_.end(), 0u);
}

void
Uncore::addWaiter(MshrSlot &slot, MissStatus &status)
{
    ++status.refs;
    status.nextWaiter = nullptr;
    if (slot.tail != nullptr)
        slot.tail->nextWaiter = &status;
    else
        slot.head = &status;
    slot.tail = &status;
}

UncoreLoadResult
Uncore::load(const MissRef &status, Tick when)
{
    const Addr line = status->lineAddr;
    if (l3_.access(line, false, 0, &status->value))
        return UncoreLoadResult::HitL3;

    llcMisses_++;
    const auto live = std::find(liveLines_.begin(), liveLines_.end(), line);
    if (live != liveLines_.end()) {
        addWaiter(slots_[slotOrder_[static_cast<std::size_t>(
                      live - liveLines_.begin())]],
                  *status);
        llcCoalesced_++;
        return UncoreLoadResult::Pending;
    }
    if (liveLines_.size() >= slots_.size()) {
        llcMshrBlocks_++;
        return UncoreLoadResult::MshrBlocked;
    }
    const auto pos = static_cast<std::uint32_t>(liveLines_.size());
    const std::uint32_t slot = slotOrder_[pos];
    liveLines_.push_back(line);
    slots_[slot].livePos = pos;
    addWaiter(slots_[slot], *status);

    MemRequest req;
    req.lineAddr = line;
    req.isWrite = false;
    req.coreId = status->owner != nullptr ? status->owner->id() : -1;
    backend_.read(req, when, [this, slot](const MemResponse &resp) {
        onResponse(slot, resp);
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
Uncore::onResponse(std::uint32_t slot, const MemResponse &resp)
{
    // Detach the chain and free the slot before completing anyone: a
    // completion callback may re-enter load() and claim it. The last
    // live line moves into the freed position.
    MshrSlot &entry = slots_[slot];
    MissStatus *chain = entry.head;
    assert(chain != nullptr); // each backend callback fires once
    entry.head = entry.tail = nullptr;
    const std::uint32_t pos = entry.livePos;
    const Addr line_addr = liveLines_[pos];
    liveLines_[pos] = liveLines_.back();
    liveLines_.pop_back();
    std::swap(slotOrder_[pos], slotOrder_[liveLines_.size()]);
    slots_[slotOrder_[pos]].livePos = pos;
    const Tick now = eq_.now();

    const bool data = resp.kind == MemResponseKind::Data;
    if (data) {
        CacheResult res = l3_.fill(line_addr, false, resp.value);
        if (res.writeback) {
            MemRequest wb;
            wb.lineAddr = res.victimAddr;
            wb.isWrite = true;
            wb.value = res.victimValue;
            backend_.write(wb, now);
        }
    }
    MissStatus *next = nullptr;
    for (MissStatus *w = chain; w != nullptr; w = next) {
        next = w->nextWaiter;
        const MissRef st(w, &missSlab_); // adopts the chain's reference
        if (!data) {
            if (st->owner != nullptr)
                st->owner->onMissHint(st, now);
            else
                st->hinted = true;
            continue;
        }
        st->value = resp.value;
        offchip_.record(now - st->issuedAt);
        if (tenants_ != nullptr) {
            if (TenantCounters *tenant =
                    tenants_->counters(tenants_->ofVaddr(st->lineAddr)))
                tenant->offchipLatency.record(now - st->issuedAt);
        }
        if (st->owner != nullptr) {
            st->owner->onMissData(st, now);
        } else {
            st->done = true;
            st->doneAt = now;
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
