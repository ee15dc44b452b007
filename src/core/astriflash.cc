#include "core/astriflash.h"

namespace skybyte {

AstriFlashCache::AstriFlashCache(const SimConfig &cfg, EventQueue &eq,
                                 SsdController &ssd, DramModel &host_dram)
    : cfg_(cfg), eq_(eq), ssd_(ssd), hostDram_(host_dram),
      tags_(cfg.hostMem.promotedBytesMax, 8, cfg.audit)
{}

void
AstriFlashCache::respond(PageFetch::LineReader &r, std::uint64_t lpn,
                         LineValue value, Tick t_page)
{
    const Addr line_addr = lpn * kPageBytes
                           + static_cast<Addr>(r.off) * kCachelineBytes;
    const Tick t_data =
        hostDram_.serviceAt(t_page, kCachelineBytes, line_addr);
    MemResponse resp;
    resp.kind = MemResponseKind::Data;
    resp.lineAddr = line_addr;
    resp.value = value;
    eq_.schedule(t_data,
                 [cb = std::move(r.cb), resp]() mutable { cb(resp); });
}

void
AstriFlashCache::read(Addr dev_line_addr, Tick when, MemCallback cb)
{
    const std::uint64_t lpn = pageNumber(dev_line_addr);
    const std::uint32_t off = lineInPage(dev_line_addr);

    if (CachedPage *page = tags_.lookup(lpn)) {
        astriStats_.hostHits++;
        page->touchedMask |= 1ULL << off;
        const Tick t_data =
            hostDram_.serviceAt(when, kCachelineBytes, dev_line_addr);
        MemResponse resp;
        resp.kind = MemResponseKind::Data;
        resp.lineAddr = dev_line_addr;
        if (const PageData *data = tags_.data(*page))
            resp.value = (*data)[off];
        eq_.schedule(t_data,
                     [cb = std::move(cb), resp]() mutable { cb(resp); });
        return;
    }

    astriStats_.hostMisses++;
    PageFetch *fill = fills_.find(lpn);
    if (fill == nullptr)
        fill = startFill(lpn, when);

    if (cfg_.policy.deviceTriggeredCtxSwitch) {
        // AstriFlash switches user-level threads on every host DRAM
        // miss; the preset sets a sub-microsecond switch overhead.
        astriStats_.userSwitchHints++;
        MemResponse resp;
        resp.kind = MemResponseKind::DelayHint;
        resp.lineAddr = dev_line_addr;
        eq_.schedule(when + nsToTicks(20.0),
                     [cb = std::move(cb), resp]() mutable { cb(resp); });
        return;
    }
    fills_.addReader(*fill, off, when, std::move(cb));
}

void
AstriFlashCache::write(Addr dev_line_addr, LineValue value, Tick when)
{
    const std::uint64_t lpn = pageNumber(dev_line_addr);
    const std::uint32_t off = lineInPage(dev_line_addr);

    if (CachedPage *page = tags_.lookup(lpn)) {
        hostDram_.serviceAt(when, kCachelineBytes, dev_line_addr);
        if (PageData *data = tags_.data(*page))
            (*data)[off] = value;
        page->dirty = true;
        page->dirtyMask |= 1ULL << off;
        page->touchedMask |= 1ULL << off;
        return;
    }
    // Write-allocate at page granularity.
    PageFetch *fill = fills_.find(lpn);
    if (fill == nullptr) {
        astriStats_.hostMisses++;
        fill = startFill(lpn, when);
    }
    fills_.addWrite(*fill, off, value);
}

PageFetch *
AstriFlashCache::startFill(std::uint64_t lpn, Tick when)
{
    PageFetch *fill = fills_.start(lpn);
    ssd_.readPageToHost(lpn, when, [this, lpn](Tick t) {
        PageFetch *fill = fills_.take(lpn);
        astriStats_.pageFills++;

        const Tick t_ins = hostDram_.serviceAt(t, kPageBytes,
                                               lpn * kPageBytes);
        PageEvict ev;
        PageData victim_data;
        CachedPage *page = tags_.fill(lpn, ev, &victim_data);
        // The device page cannot have changed since the read: writes to
        // it wait in fill->writes.
        PageData *cached = tags_.data(*page);
        if (cached != nullptr)
            ssd_.snapshotPage(lpn, *cached);
        for (PageFetch::LineWrite *bw = fill->writes.head; bw != nullptr;
             bw = bw->next) {
            if (cached != nullptr)
                (*cached)[bw->off] = bw->value;
            page->dirty = true;
            page->dirtyMask |= 1ULL << bw->off;
            page->touchedMask |= 1ULL << bw->off;
        }
        if (ev.evicted && ev.dirty) {
            astriStats_.dirtyWritebacks++;
            ssd_.writePageFromHost(
                ev.lpn, cached != nullptr ? &victim_data : nullptr, t_ins);
        }
        for (PageFetch::LineReader *r = fill->readers.head; r != nullptr;
             r = r->next) {
            respond(*r, lpn, cached != nullptr ? (*cached)[r->off] : 0,
                    t_ins);
        }
        fills_.release(fill);
    });
    return fill;
}

LineValue
AstriFlashCache::peekLine(Addr dev_line_addr)
{
    if (!cfg_.audit)
        return 0;
    if (const CachedPage *page = tags_.probe(pageNumber(dev_line_addr)))
        return (*tags_.data(*page))[lineInPage(dev_line_addr)];
    return ssd_.peekLine(dev_line_addr);
}

} // namespace skybyte
