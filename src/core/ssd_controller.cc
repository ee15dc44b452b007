#include "core/ssd_controller.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "cxl/ndr.h"
#include "trace/tenant_map.h"

namespace skybyte {

SsdController::SsdController(const SimConfig &cfg, EventQueue &eq,
                             CxlLink &link, TenantMap *tenants)
    : cfg_(cfg), eq_(eq), link_(link), dram_(eq, cfg.ssdDram, cfg.audit),
      ftl_(cfg.flash, eq, cfg.seed ^ 0xf7a5ULL, cfg.audit),
      cache_(cfg.ssdCache.dataCacheBytes, cfg.ssdCache.dataCacheWays,
             cfg.audit),
      tenants_(tenants)
{
    if (cfg.policy.writeLogEnable) {
        // skybyte-lint: allow(hot-path-alloc) one-time construction; without payload, appends allocate only while the index grows to its peak
        log_ = std::make_unique<WriteLog>(cfg.ssdCache.writeLogBytes,
                                          cfg.audit);
    }
    compactJobs_.resize(cfg.flash.channels);
    if (tenants_ == nullptr)
        return;
    if (cfg.qos.weightedAdmission) {
        qosEpochTicks_ = std::max<Tick>(cfg.qos.epochTicks, 1);
        for (const std::uint64_t credits : tenants_->splitByWeight(
                 static_cast<double>(cfg.qos.creditsPerEpoch), 1)) {
            admission_.push_back(
                {.budget = static_cast<std::uint32_t>(credits)});
        }
    }
    if (cfg.qos.writeLogQuota && log_ != nullptr) {
        log_->setTenantQuotas(tenants_->splitByWeight(
            static_cast<double>(log_->activeBuffer().capacityEntries()),
            1));
    }
}

SsdController::~SsdController()
{
    // Fetches still in flight at teardown (timed-out runs) own waiter
    // records whose callbacks' captures must be destroyed: drain them.
    for (PendingFetch *pf : fetches_) {
        if (pf != nullptr)
            releaseFetch(pf);
    }
}

void
SsdController::releaseFetch(PendingFetch *pf)
{
    pf->waiters.drainTo(waiterSlab_);
    pf->pageWaiters.drainTo(pageWaiterSlab_);
    pf->pendingWrites.drainTo(pendingWriteSlab_);
    fetchSlab_.release(pf);
}

void
SsdController::addWaiter(PendingFetch &pf, std::uint32_t off,
                         Tick ready_at, MemCallback cb)
{
    Waiter *w = waiterSlab_.alloc();
    w->lineOff = off;
    w->readyAt = ready_at;
    w->cb = std::move(cb);
    pf.waiters.append(w);
}

void
SsdController::addPageWaiter(PendingFetch &pf, Tick ready_at,
                             PageReadFn cb)
{
    PageWaiter *pw = pageWaiterSlab_.alloc();
    pw->readyAt = ready_at;
    pw->cb = std::move(cb);
    pf.pageWaiters.append(pw);
}

void
SsdController::addPendingWrite(PendingFetch &pf, std::uint32_t off,
                               LineValue value)
{
    PendingWrite *wr = pendingWriteSlab_.alloc();
    wr->off = off;
    wr->value = value;
    pf.pendingWrites.append(wr);
}

Tick
SsdController::admit(int tenant, Tick t_arr, std::uint32_t cost)
{
    if (tenant < 0 || static_cast<std::size_t>(tenant) >= admission_.size())
        return t_arr;
    AdmissionState &st = admission_[static_cast<std::size_t>(tenant)];
    const std::uint64_t e = t_arr / qosEpochTicks_;
    // Epochs only move forward. Requests reach read()/write() out of
    // time order (each core issues at its own cursor, which runs ahead
    // of the event queue; see Core::runLoop), but the CXL link
    // serializes them, so t_arr never decreases. The bucket is what
    // runs ahead: the loop below lends a tenant past its budget credit
    // from later epochs, so a later arrival can still fall in an epoch
    // before st.epoch and must keep spending from st.epoch's bucket
    // rather than reopen its own, already spent one.
    if (e > st.epoch) {
        st.epoch = e;
        st.used = 0;
    }
    for (std::uint32_t c = 0; c < cost; ++c) {
        while (st.used >= st.budget) {
            st.epoch++;
            st.used = 0;
        }
        st.used++;
    }
    // Pace the spent credit to its slot WITHIN the epoch rather than
    // admitting every held request at the epoch boundary: a boundary
    // release synchronizes the whole backlog into one burst whose
    // queueing spike hits the other tenants' tail latency — the exact
    // thing the throttle exists to protect.
    const Tick slot = st.epoch * qosEpochTicks_
                      + static_cast<Tick>(st.used - 1)
                            * (qosEpochTicks_ / st.budget);
    return std::max<Tick>(t_arr, slot);
}

Tick
SsdController::indexLatency() const
{
    // Log and cache indexes are probed in parallel (§III-B); the write
    // log index is the slower of the two on the FPGA prototype (§V).
    return logEnabled() ? std::max(cfg_.ssdCache.writeLogIndexLatency,
                                   cfg_.ssdCache.dataCacheIndexLatency)
                        : cfg_.ssdCache.dataCacheIndexLatency;
}

bool
SsdController::shouldHint(std::uint64_t lpn, Tick est) const
{
    if (!cfg_.policy.deviceTriggeredCtxSwitch)
        return false;
    // GC blocks the channel for milliseconds: always switch (§III-A).
    if (ftl_.gcActiveFor(lpn))
        return true;
    return est > cfg_.policy.csThreshold;
}

void
SsdController::sendDelayHint(Tick t, MemCallback cb)
{
    stats_.delayHintsSent++;
    // The hint travels as a Figure 8 NDR flit with the SkyByte-Delay
    // opcode: encoded device-side, decoded host-side. The tag is the
    // link transaction tag of the blocked MemRd (C1/C2).
    NdrMessage ndr;
    ndr.valid = true;
    ndr.opcode = CxlNdrOpcode::SkyByteDelay;
    ndr.tag = link_.nextTag();
    const NdrFlit flit = encodeNdr(ndr);
    const Tick t_host = link_.deliverToHost(t, kHeaderBytes);
    eq_.schedule(t_host, [cb = std::move(cb), flit]() mutable {
        const auto decoded = decodeNdr(flit);
        assert(decoded
               && decoded->opcode == CxlNdrOpcode::SkyByteDelay);
        MemResponse resp;
        resp.kind = MemResponseKind::DelayHint;
        resp.tag = decoded ? decoded->tag : 0;
        cb(resp);
    });
}

void
SsdController::touchForPromotion(std::uint64_t lpn, Tick now)
{
    if (!hotPageHook_
        || cfg_.policy.migration != MigrationMechanism::SkyByte) {
        return;
    }
    if (lpn >= accessCounts_.size())
        accessCounts_.resize(lpn + 1);
    const std::uint32_t count = accessCounts_[lpn];
    if (count == ~0u)
        return; // promotion already in flight / done
    accessCounts_[lpn] = count + 1;
    // Only cache-resident pages are candidates (§III-C); a rejected
    // candidate stays eligible and retries on a later access.
    if (count + 1 >= cfg_.policy.hotPageThreshold && isPageCached(lpn)
        && hotPageHook_(lpn, now)) {
        accessCounts_[lpn] = ~0u;
        stats_.pagePromotionsSignalled++;
    }
}

void
SsdController::read(Addr dev_line_addr, Tick when, MemCallback cb)
{
    const std::uint64_t lpn = pageNumber(dev_line_addr);
    const std::uint32_t off = lineInPage(dev_line_addr);
    const Tick t_link = link_.deliverToDevice(when, kHeaderBytes);
    const int tenant_idx =
        tenants_ != nullptr ? tenants_->ofDevice(dev_line_addr) : -1;
    // Weighted admission (QoS): a tenant past its epoch credit budget
    // has the request held at the device front end; the late response
    // backpressures that tenant's cores through their ROB/MSHR limits.
    const Tick t_arr = admit(tenant_idx, t_link);
    const Tick t_idx = t_arr + indexLatency();
    touchForPromotion(lpn, t_arr);

    // Parallel probe of write log and data cache (R1/R2 in Fig 11).
    std::optional<LineValue> log_val;
    if (logEnabled())
        log_val = log_->lookup(dev_line_addr);
    CachedPage *page = cache_.lookup(lpn);

    TenantCounters *tenant =
        tenant_idx < 0 ? nullptr : tenants_->counters(tenant_idx);
    if (tenant != nullptr && t_arr > t_link) {
        tenant->qosDelayedReads++;
        tenant->qosThrottleTicks += t_arr - t_link;
    }

    if (page != nullptr || log_val.has_value()) {
        LineValue value;
        if (page != nullptr) {
            page->touchedMask |= 1ULL << off;
            const PageData *data = cache_.data(*page);
            value = log_val.value_or(data != nullptr ? (*data)[off] : 0);
            stats_.readHitsCache++;
            if (tenant != nullptr)
                tenant->ssdReadHits++;
        } else {
            value = *log_val;
            stats_.readHitsLog++;
            if (tenant != nullptr)
                tenant->ssdReadHits++;
        }
        const Tick t_data =
            dram_.serviceAt(t_idx, kCachelineBytes, dev_line_addr);
        const Tick t_resp = link_.deliverToHost(t_data, kCachelineBytes);
        stats_.amatReads++;
        // Admission hold time (t_arr - t_link) is QoS throttling, not
        // protocol: it lands in the tenant's qosThrottleTicks instead.
        stats_.protocolTicks += static_cast<double>(
            (t_link - when) + (t_resp - t_data));
        stats_.indexingTicks += static_cast<double>(indexLatency());
        stats_.ssdDramTicks += static_cast<double>(t_data - t_idx);
        MemResponse resp;
        resp.kind = MemResponseKind::Data;
        resp.lineAddr = dev_line_addr;
        resp.value = value;
        eq_.schedule(t_resp,
                     [cb = std::move(cb), resp]() mutable { cb(resp); });
        return;
    }

    // R3: flash fetch needed.
    stats_.readMisses++;
    if (tenant != nullptr)
        tenant->ssdReadMisses++;
    if (PendingFetch *pf = fetchOf(lpn)) {
        const Tick remaining =
            pf->expectedDone > t_idx ? pf->expectedDone - t_idx : 0;
        if (cfg_.policy.deviceTriggeredCtxSwitch
            && remaining > cfg_.policy.csThreshold) {
            sendDelayHint(t_idx, std::move(cb));
            return;
        }
        pf->prefetch = false;
        addWaiter(*pf, off, t_idx, std::move(cb));
        return;
    }

    const Tick est = ftl_.estimateReadDelay(lpn, t_idx);
    const bool hint = shouldHint(lpn, est);
    PendingFetch *pf = startFetch(lpn, t_idx, false);

    // Sequential next-page prefetch (Base-CSSD optimization [32],[62]),
    // throttled so useless prefetches cannot saturate a busy channel.
    if (cfg_.ssdCache.baseCssdPrefetch) {
        const std::uint64_t next = lpn + 1;
        if (cache_.probe(next) == nullptr && fetchOf(next) == nullptr
            && next * kPageBytes < cfg_.flash.totalBytes()
            && ftl_.channelOf(next).pendingReads() < 2
            && !ftl_.gcActiveFor(next)) {
            stats_.prefetches++;
            startFetch(next, t_idx, true);
        }
    }

    if (hint) {
        sendDelayHint(t_idx, std::move(cb));
        return;
    }
    addWaiter(*pf, off, t_idx, std::move(cb));
}

SsdController::PendingFetch *
SsdController::startFetch(std::uint64_t lpn, Tick t, bool prefetch)
{
    assert(fetchOf(lpn) == nullptr);
    if (lpn >= fetches_.size())
        fetches_.resize(lpn + 1);
    PendingFetch *pf = fetchSlab_.alloc();
    fetches_[lpn] = pf;
    pf->startedAt = t;
    pf->prefetch = prefetch;
    pf->expectedDone = t + ftl_.estimateReadDelay(lpn, t);
    ftl_.readPage(lpn, t, [this, lpn](Tick done) {
        onPageArrived(lpn, done);
    });
    return pf;
}

void
SsdController::mergeLogInto(std::uint64_t lpn, PageData &data)
{
    if (!logEnabled())
        return;
    log_->mergePageInto(lpn, data);
}

void
SsdController::handleEviction(const PageEvict &ev,
                              const PageData *victim_data, Tick when)
{
    if (!ev.evicted)
        return;
    stats_.readLocality.record(
        static_cast<double>(std::popcount(ev.touchedMask))
        / kLinesPerPage);
    if (ev.dirty && !logEnabled()) {
        // Base-CSSD: write the whole dirty page back to flash.
        stats_.dirtyEvictions++;
        stats_.writeLocality.record(
            static_cast<double>(std::popcount(ev.dirtyMask))
            / kLinesPerPage);
        ftl_.writePage(ev.lpn, when, victim_data, nullptr);
    }
}

void
SsdController::respondLine(Waiter &w, std::uint64_t lpn, Tick t_page,
                           LineValue value)
{
    const Addr line_addr = lpn * kPageBytes
                           + static_cast<Addr>(w.lineOff) * kCachelineBytes;
    const Tick t_data = dram_.serviceAt(t_page, kCachelineBytes, line_addr);
    const Tick t_resp = link_.deliverToHost(t_data, kCachelineBytes);
    stats_.amatReads++;
    stats_.protocolTicks +=
        static_cast<double>(link_.protocolLatency() * 2);
    stats_.indexingTicks += static_cast<double>(indexLatency());
    stats_.ssdDramTicks += static_cast<double>(t_data - t_page);
    stats_.flashTicks += static_cast<double>(
        t_page > w.readyAt ? t_page - w.readyAt : 0);
    MemResponse resp;
    resp.kind = MemResponseKind::Data;
    resp.lineAddr = line_addr;
    resp.value = value;
    eq_.schedule(t_resp,
                 [cb = std::move(w.cb), resp]() mutable { cb(resp); });
}

void
SsdController::onPageArrived(std::uint64_t lpn, Tick done)
{
    PendingFetch *pf = fetchOf(lpn);
    assert(pf != nullptr); // each fetch's flash read completes once
    fetches_[lpn] = nullptr;

    stats_.flashReadLatency.record(done - pf->startedAt);
    if (tenants_ != nullptr) {
        if (TenantCounters *tenant =
                tenants_->counters(tenants_->ofDevice(lpn * kPageBytes))) {
            tenant->flashPageReads++;
            tenant->flashReadTicks +=
                static_cast<double>(done - pf->startedAt);
        }
    }

    // Install into the data cache (a 4 KB SSD DRAM write). The payload,
    // if any, is written directly into the claimed slot: no transient
    // PageData.
    const Tick t_ins = dram_.serviceAt(done, kPageBytes, lpn * kPageBytes);
    PageEvict ev;
    PageData victim_data;
    CachedPage *page =
        cache_.fill(lpn, ev, logEnabled() ? nullptr : &victim_data);
    PageData *data = cache_.data(*page);
    if (data != nullptr) {
        *data = ftl_.pageData(lpn);
        mergeLogInto(lpn, *data);
    }
    handleEviction(ev, ev.dirty && data != nullptr ? &victim_data : nullptr,
                   t_ins);

    // Waiters respond from the fetched snapshot, BEFORE the buffered
    // write-allocate lines apply: those writes arrived after the reads
    // they would otherwise leak into.
    for (Waiter *w = pf->waiters.head; w != nullptr; w = w->next) {
        page->touchedMask |= 1ULL << w->lineOff;
        respondLine(*w, lpn, t_ins,
                    data != nullptr ? (*data)[w->lineOff] : 0);
        // The page is resident now, so hot-page promotion can trigger
        // even for pages whose popularity was only visible via misses.
        touchForPromotion(lpn, t_ins);
    }
    for (PageWaiter *pw = pf->pageWaiters.head; pw != nullptr;
         pw = pw->next) {
        const Tick t_data = dram_.serviceAt(t_ins, kPageBytes,
                                            lpn * kPageBytes);
        const Tick t_resp = link_.deliverToHost(t_data, kPageBytes);
        eq_.schedule(t_resp, [cb = std::move(pw->cb), t_resp]() mutable {
            cb(t_resp);
        });
    }

    // Base-CSSD write-allocate: apply buffered line writes.
    if (!pf->pendingWrites.empty()) {
        PageData *flash = data != nullptr ? &ftl_.pageData(lpn) : nullptr;
        for (PendingWrite *wr = pf->pendingWrites.head; wr != nullptr;
             wr = wr->next) {
            if (data != nullptr) {
                (*data)[wr->off] = wr->value;
                (*flash)[wr->off] = wr->value;
            }
            page->dirty = true;
            page->dirtyMask |= 1ULL << wr->off;
            page->touchedMask |= 1ULL << wr->off;
        }
    }
    releaseFetch(pf);
}

void
SsdController::write(Addr dev_line_addr, LineValue value, Tick when)
{
    const std::uint64_t lpn = pageNumber(dev_line_addr);
    const std::uint32_t off = lineInPage(dev_line_addr);
    const Tick t_link = link_.deliverToDevice(when, kCachelineBytes);
    const int tenant_idx =
        tenants_ != nullptr ? tenants_->ofDevice(dev_line_addr) : -1;
    TenantCounters *tenant =
        tenant_idx < 0 ? nullptr : tenants_->counters(tenant_idx);
    // Over-quota log residency pays a one-credit admission surcharge,
    // so a tenant hogging the write log drains its epoch budget twice
    // as fast (QosConfig::writeLogQuota).
    std::uint32_t cost = 1;
    if (logEnabled() && tenant != nullptr
        && log_->overQuota(static_cast<std::size_t>(tenant_idx))) {
        cost = 2;
        tenant->qosLogOverQuota++;
    }
    const Tick t_arr = admit(tenant_idx, t_link, cost);
    const Tick t_idx = t_arr + indexLatency();
    if (tenant != nullptr && t_arr > t_link) {
        tenant->qosDelayedWrites++;
        tenant->qosThrottleTicks += t_arr - t_link;
    }
    stats_.writes++;
    if (tenant != nullptr)
        tenant->ssdWrites++;
    touchForPromotion(lpn, t_arr);

    if (logEnabled()) {
        // W1: append to the log; W2: parallel update of a cached copy;
        // W3: index update (inside append).
        log_->append(dev_line_addr, value, tenant_idx);
        if (tenant != nullptr)
            tenant->logAppends++;
        dram_.serviceAt(t_idx, kCachelineBytes, dev_line_addr);
        if (CachedPage *page = cache_.lookup(lpn)) {
            if (PageData *data = cache_.data(*page))
                (*data)[off] = value;
            page->touchedMask |= 1ULL << off;
            // Not marked dirty: the log owns the dirty data.
        }
        maybeStartCompaction(t_idx);
        return;
    }

    // Base-CSSD: page-granular write-allocate.
    if (CachedPage *page = cache_.lookup(lpn)) {
        if (PageData *data = cache_.data(*page)) {
            (*data)[off] = value;
            ftl_.pageData(lpn)[off] = value;
        }
        page->dirty = true;
        page->dirtyMask |= 1ULL << off;
        page->touchedMask |= 1ULL << off;
        dram_.serviceAt(t_idx, kCachelineBytes, dev_line_addr);
        return;
    }
    if (PendingFetch *pf = fetchOf(lpn)) {
        addPendingWrite(*pf, off, value);
        return;
    }
    stats_.rmwFetches++;
    addPendingWrite(*startFetch(lpn, t_idx, false), off, value);
}

void
SsdController::maybeStartCompaction(Tick now)
{
    if (!logEnabled() || compacting_ || !log_->needCompaction())
        return;

    WriteLogBuffer &buf = log_->beginCompaction();
    compacting_ = true;
    compactStart_ = now;
    stats_.compactionRuns++;

    // Enumerate the draining buffer's pages in ascending-LPA order:
    // the index lists them unsorted (see forEachPage), and the job
    // order per channel is part of the simulation's observable timing.
    std::vector<std::uint64_t> lpas;
    lpas.reserve(buf.pageCount());
    buf.forEachPage(
        [&lpas](std::uint64_t lpa, std::uint64_t) { lpas.push_back(lpa); });
    std::sort(lpas.begin(), lpas.end());
    for (std::uint64_t lpa : lpas)
        compactJobs_[lpa % cfg_.flash.channels].push_back(lpa);

    compactOutstanding_ = 0;
    for (std::uint32_t ch = 0; ch < cfg_.flash.channels; ++ch) {
        if (!compactJobs_[ch].empty()) {
            compactOutstanding_++;
            issueCompactionJob(ch, now);
        }
    }
    if (compactOutstanding_ == 0) {
        log_->finishCompaction();
        compacting_ = false;
    }
}

void
SsdController::issueCompactionJob(std::uint32_t ch, Tick when)
{
    // One in-flight job per channel paces compaction so demand reads
    // interleave with background programs (§III-B "background").
    while (!compactJobs_[ch].empty()) {
        const std::uint64_t lpa = compactJobs_[ch].front();
        compactJobs_[ch].pop_front();

        // Which lines the DRAINING buffer logged; the page may have
        // been migrated away mid-drain, in which case we skip it.
        const std::uint64_t mask = log_->gatherDraining(lpa, nullptr);
        const auto dirty_lines =
            static_cast<std::uint32_t>(std::popcount(mask));
        if (dirty_lines == 0)
            continue;
        stats_.writeLocality.record(
            static_cast<double>(dirty_lines) / kLinesPerPage);
        const bool covered = dirty_lines == kLinesPerPage;

        if (CachedPage *page = cache_.lookup(lpa)) {
            // L2: merge into the cached copy and flush it.
            PageData *data = cache_.data(*page);
            if (data != nullptr)
                log_->gatherDraining(lpa, data);
            flushCompacted(ch, lpa, when, data);
            return;
        }
        if (covered) {
            // Fully covered: program directly, no flash read.
            flushCompacted(ch, lpa, when, nullptr);
            return;
        }
        // L3-L5: read into the coalescing buffer, merge, program.
        stats_.compactionFlashReads++;
        ftl_.readPage(lpa, when, [this, ch, lpa](Tick t) {
            flushCompacted(ch, lpa, t, nullptr);
        });
        return;
    }
    // Channel drained.
    compactOutstanding_--;
    if (compactOutstanding_ == 0) {
        log_->finishCompaction();
        compacting_ = false;
        stats_.compactionTicksTotal += eq_.now() - compactStart_;
        maybeStartCompaction(eq_.now()); // active may already be full
    }
}

void
SsdController::flushCompacted(std::uint32_t ch, std::uint64_t lpa,
                              Tick when, const PageData *cached)
{
    stats_.compactionPagesFlushed++;
    PageData merged{};
    const PageData *data = cached;
    if (data == nullptr && cfg_.audit) {
        // The drained lines over the flash copy (a fully covered page
        // takes every line from the log).
        merged = ftl_.pageData(lpa);
        log_->gatherDraining(lpa, &merged);
        data = &merged;
    }
    ftl_.writePage(lpa, when, data,
                   [this, ch](Tick t) { issueCompactionJob(ch, t); });
}

void
SsdController::readPageToHost(std::uint64_t lpn, Tick when, PageReadFn cb)
{
    const Tick t_arr = link_.deliverToDevice(when, kHeaderBytes);
    const Tick t_idx = t_arr + indexLatency();

    if (cache_.lookup(lpn) != nullptr) {
        const Tick t_data = dram_.serviceAt(t_idx, kPageBytes,
                                            lpn * kPageBytes);
        const Tick t_resp = link_.deliverToHost(t_data, kPageBytes);
        eq_.schedule(t_resp,
                     [cb = std::move(cb), t_resp]() mutable { cb(t_resp); });
        return;
    }
    if (PendingFetch *pf = fetchOf(lpn)) {
        addPageWaiter(*pf, t_idx, std::move(cb));
        return;
    }
    addPageWaiter(*startFetch(lpn, t_idx, false), t_idx, std::move(cb));
}

void
SsdController::writePageFromHost(std::uint64_t lpn, const PageData *data,
                                 Tick when)
{
    const Tick t_arr = link_.deliverToDevice(when, kPageBytes);
    if (CachedPage *page = cache_.lookup(lpn)) {
        PageData *cached = cache_.data(*page);
        if (cached != nullptr && data != nullptr)
            *cached = *data;
        page->dirty = false;
        page->dirtyMask = 0;
    }
    if (logEnabled())
        log_->invalidatePage(lpn);
    // The host rewrote the page wholesale; its SSD-side access history
    // is moot, so its counter restarts from zero. No-op in
    // AstriFlash/TPP modes, which never count.
    if (lpn < accessCounts_.size())
        accessCounts_[lpn] = 0;
    stats_.writeLocality.record(1.0);
    ftl_.writePage(lpn, t_arr, data, nullptr);
}

bool
SsdController::isPageCached(std::uint64_t lpn) const
{
    return cache_.probe(lpn) != nullptr;
}

void
SsdController::snapshotPage(std::uint64_t lpn, PageData &out)
{
    if (!cfg_.audit) {
        out = PageData{};
        return;
    }
    if (const CachedPage *page = cache_.probe(lpn))
        out = *cache_.data(*page);
    else
        out = ftl_.pageData(lpn);
    mergeLogInto(lpn, out);
}

void
SsdController::dropMigratedPage(std::uint64_t lpn)
{
    cache_.invalidate(lpn);
    if (logEnabled())
        log_->invalidatePage(lpn);
    // Invalidation must reset the hot-page counter too: the migrated
    // page's count is latched at ~0u and would otherwise keep the page
    // from promoting again after a demotion. Counters of merely-evicted
    // pages survive by design (§III-C: popularity seen via misses still
    // promotes).
    if (lpn < accessCounts_.size())
        accessCounts_[lpn] = 0;
}

void
SsdController::warmFill(std::uint64_t lpn)
{
    if (cache_.probe(lpn) != nullptr)
        return;
    PageEvict ev;
    CachedPage *page = cache_.fill(lpn, ev);
    if (PageData *data = cache_.data(*page))
        *data = ftl_.pageData(lpn);
}

LineValue
SsdController::peekLine(Addr dev_line_addr)
{
    if (!cfg_.audit)
        return 0;
    if (logEnabled()) {
        if (auto v = log_->lookup(dev_line_addr))
            return *v;
    }
    if (const CachedPage *page = cache_.probe(pageNumber(dev_line_addr)))
        return (*cache_.data(*page))[lineInPage(dev_line_addr)];
    return ftl_.peekLine(dev_line_addr);
}

} // namespace skybyte
