#include "core/migration.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

#include "trace/tenant_map.h"

namespace skybyte {

MigrationEngine::MigrationEngine(const SimConfig &cfg, EventQueue &eq,
                                 SsdController &ssd, DramModel &host_dram,
                                 CxlLink &link, const TenantMap *tenants)
    : cfg_(cfg), eq_(eq), ssd_(ssd), hostDram_(host_dram), link_(link),
      rng_(cfg.seed ^ 0x711fULL), plb_(cfg.hostMem.plbEntries),
      tenants_(tenants)
{
    if (cfg_.hostMem.hugePageBytes >= kPageBytes) {
        // A PLB entry's chunk and dirty bitmaps hold one 2 MB region.
        if (cfg_.hostMem.hugePageBytes / kPageBytes > Plb::kMaxRegionPages) {
            throw std::invalid_argument(
                "MigrationEngine: huge pages larger than 2 MiB: "
                + std::to_string(cfg_.hostMem.hugePageBytes));
        }
        regionPages_ = static_cast<std::uint32_t>(
            cfg_.hostMem.hugePageBytes / kPageBytes);
    }
    if (tenants_ != nullptr && cfg_.qos.migrationShare) {
        // Floored at one region so no tenant is locked out of host
        // DRAM entirely.
        tenantShareBytes_ = tenants_->splitByWeight(
            static_cast<double>(cfg_.hostMem.promotedBytesMax),
            static_cast<std::uint64_t>(regionPages_) * kPageBytes);
        tenantPromotedBytes_.assign(tenantShareBytes_.size(), 0);
    }
    if (cfg_.policy.migration == MigrationMechanism::SkyByte) {
        ssd_.setHotPageHook([this](std::uint64_t lpn, Tick now) {
            return onHotPage(lpn, now);
        });
    }
}

PageHome
MigrationEngine::route(std::uint64_t lpn, std::uint32_t line, Tick now,
                       bool is_write)
{
    if (Plb::Entry *entry = plb_.find(lpn)) {
        // Region under promotion (§III-C): reads are served from the
        // SSD DRAM; only writes whose migrated bit is set chase the
        // fresh host copy.
        if (!is_write)
            return PageHome::Ssd;
        const auto chunk =
            static_cast<std::uint32_t>(lpn - entry->baseLpn);
        // Either way the write only survives in the host copy once the
        // migration completes (the SSD drops its log/cache state), so
        // the page must demote dirty later.
        markDirty(entry->dirtyPages, chunk);
        if (entry->lineMigrated(chunk, line)) {
            migStats_.inflightWriteRedirects++;
            return PageHome::Host;
        }
        return PageHome::Ssd; // copy of this line picks the write up
    }
    const std::uint64_t base = regionBase(lpn);
    if (PromotedRegion *resident = regionAt(base)) {
        PromotedRegion &region = *resident;
        region.lastUse = now;
        if (is_write)
            markDirty(region.dirtyPages, lpn - base);
        // Per-access recency upkeep for whichever structure the active
        // reclaim policy consults for victims; the unused one only
        // needs the unlink-on-demote invariant, not fresh order.
        if (cfg_.hostMem.reclaim == ReclaimPolicy::ActiveInactive)
            lists_.touch(regionIndex(base), now);
        else
            lruTouch(region);
        return PageHome::Host;
    }
    return PageHome::Ssd;
}

bool
MigrationEngine::onHotPage(std::uint64_t lpn, Tick now)
{
    const std::uint64_t base = regionBase(lpn);
    // Pinned pages stay on the device for persistence (§IV).
    if (regionPinned(base))
        return true; // latch: never a candidate
    if (regionAt(base) != nullptr || plb_.find(lpn) != nullptr)
        return true; // already handled; latch it
    if (plb_.full()) {
        migStats_.rejectedPlbFull++;
        return false;
    }
    // SkyByte only migrates pages resident in the SSD data cache
    // (§III-C), since those are the verified-hot candidates. For huge
    // pages the residency test applies to the 4 KB page that tripped
    // the threshold (§IV: the host migrates the enclosing huge page).
    if (!ssd_.isPageCached(lpn)) {
        migStats_.rejectedNotCached++;
        return false;
    }
    return promote(base, now, 0);
}

void
MigrationEngine::onSsdAccess(std::uint64_t lpn, Tick now)
{
    if (cfg_.policy.migration != MigrationMechanism::Tpp)
        return;
    const std::uint64_t base = regionBase(lpn);
    if (regionPinned(base))
        return; // pinned for persistence (§IV)
    if (regionAt(base) != nullptr || plb_.find(lpn) != nullptr)
        return;
    // NUMA-hint-fault style sampling: 1/16 of accesses are observed.
    if (!rng_.chance(1.0 / 16.0))
        return;
    const std::uint64_t idx = regionIndex(base);
    if (idx >= tppScores_.size())
        tppScores_.resize(idx + 1);
    if (++tppScores_[idx] < 2)
        return;
    tppScores_[idx] = 0;
    if (plb_.full()) {
        migStats_.rejectedPlbFull++;
        return;
    }
    // TPP pays a software page-fault + kernel-migration cost on top of
    // the copy itself.
    promote(base, now, usToTicks(3.0));
}

int
MigrationEngine::shareTenantOf(std::uint64_t base) const
{
    return tenantShareBytes_.empty() ? -1
                                     : tenants_->ofDevice(base * kPageBytes);
}

bool
MigrationEngine::promote(std::uint64_t base, Tick now, Tick extra_cost)
{
    const std::uint64_t region_bytes =
        static_cast<std::uint64_t>(regionPages_) * kPageBytes;
    // Per-tenant share cap first: a promotion the cap will reject must
    // not demote other tenants' regions on its way to the rejection.
    const int tenant = shareTenantOf(base);
    if (tenant >= 0
        && tenantPromotedBytes_[static_cast<std::size_t>(tenant)]
                   + region_bytes
               > tenantShareBytes_[static_cast<std::size_t>(tenant)]) {
        migStats_.rejectedTenantShare++;
        return false;
    }
    // Anti-thrash guard: when the host budget is full, only displace a
    // region that has been idle for a while. If even the coldest
    // promoted region is recently used, the hot set exceeds the budget
    // and migrating would just churn (page copies + TLB shootdowns), so
    // the candidate is rejected and stays eligible for later.
    while (promotedBytes() + region_bytes > cfg_.hostMem.promotedBytesMax
           && lruHead_ != nullptr) {
        if (!demoteColdest(now, kAntiThrashIdle))
            return false;
    }
    if (promotedBytes() + region_bytes > cfg_.hostMem.promotedBytesMax)
        return false;

    Plb::Entry *entry = plb_.allocate(base, regionPages_);
    if (entry == nullptr) {
        migStats_.rejectedPlbFull++;
        return false;
    }

    // Timing: MSI-X to the host, then the copy proceeds in cacheline
    // bursts tracked by the PLB entry (chunk-by-chunk for huge pages).
    const Tick t_irq = now + cfg_.hostMem.msixLatency + extra_cost;
    scheduleBurst(base, 0, t_irq);
    // The PLB entry already holds host DRAM, so the share is charged
    // from the start of the copy, mirroring promotedPages().
    if (tenant >= 0)
        tenantPromotedBytes_[static_cast<std::size_t>(tenant)] +=
            region_bytes;
    return true;
}

void
MigrationEngine::scheduleBurst(std::uint64_t base, std::uint64_t line_idx,
                               Tick when)
{
    const std::uint64_t total_lines =
        static_cast<std::uint64_t>(regionPages_) * kLinesPerPage;
    const auto burst = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(
            std::max<std::uint32_t>(cfg_.hostMem.plbBurstLines, 1),
            total_lines - line_idx));
    const Tick t_done =
        link_.deliverToHost(when, burst * kCachelineBytes);
    eq_.schedule(t_done, [this, base, line_idx, burst] {
        completeBurst(base, line_idx, burst);
    });
}

void
MigrationEngine::completeBurst(std::uint64_t base, std::uint64_t line_idx,
                               std::uint32_t lines)
{
    Plb::Entry *entry = plb_.find(base);
    if (entry == nullptr)
        return; // released concurrently: stale event
    bool done = false;
    for (std::uint32_t i = 0; i < lines; ++i) {
        const std::uint64_t global = line_idx + i;
        const auto chunk = static_cast<std::uint32_t>(
            global / kLinesPerPage);
        const auto off = static_cast<std::uint32_t>(
            global % kLinesPerPage);
        const std::uint64_t lpn = base + chunk;
        // The SSD still holds the freshest value for an unmigrated
        // line (writes kept landing there), so copying now is exact.
        if (cfg_.audit) {
            hostDram_.poke(hostKeyOf(lpn, off),
                           ssd_.peekLine(lpn * kPageBytes
                                         + static_cast<Addr>(off)
                                               * kCachelineBytes));
        }
        done = plb_.markLine(*entry, chunk, off);
    }
    if (!done) {
        scheduleBurst(base, line_idx + lines, eq_.now());
        return;
    }
    finishMigration(base);
}

void
MigrationEngine::finishMigration(std::uint64_t base)
{
    // PTE update (+ custom NVMe notify for huge pages, §IV) before the
    // region becomes host-resident.
    Tick t_done = eq_.now() + nsToTicks(500.0);
    const bool huge = regionPages_ > 1;
    if (huge)
        t_done += cfg_.hostMem.nvmeNotifyLatency;
    eq_.schedule(t_done, [this, base, huge] {
        const Tick now = eq_.now();
        // route() and promote() never re-promote a resident region.
        assert(regionAt(base) == nullptr);
        const std::uint64_t idx = regionIndex(base);
        if (idx >= promoted_.size())
            promoted_.resize(idx + 1);
        PromotedRegion &region = *regionSlab_.alloc();
        promoted_[idx] = &region;
        region.lastUse = now;
        region.base = base;
        // Writes that landed while the region copied must demote dirty;
        // the PLB entry is the one record of them.
        region.dirtyPages = plb_.find(base)->dirtyPages;
        plb_.release(base);
        lruInsertByLastUse(region);
        for (std::uint32_t p = 0; p < regionPages_; ++p)
            ssd_.dropMigratedPage(base + p);
        if (huge)
            migStats_.nvmeNotifies++;
        if (cfg_.hostMem.reclaim == ReclaimPolicy::ActiveInactive)
            lists_.insert(regionIndex(base), now);
        migStats_.promotions++;
        migStats_.tlbShootdowns++;
        if (shootdownHook_)
            shootdownHook_(cfg_.hostMem.tlbShootdownCost);
    });
}

void
MigrationEngine::lruUnlink(PromotedRegion &region)
{
    if (region.lruPrev != nullptr)
        region.lruPrev->lruNext = region.lruNext;
    else if (lruHead_ == &region)
        lruHead_ = region.lruNext;
    if (region.lruNext != nullptr)
        region.lruNext->lruPrev = region.lruPrev;
    else if (lruTail_ == &region)
        lruTail_ = region.lruPrev;
    region.lruPrev = region.lruNext = nullptr;
}

void
MigrationEngine::lruInsertByLastUse(PromotedRegion &region)
{
    // Ticks from interleaved core quanta are only nearly sorted, so
    // find the slot by walking back from the tail; insertion after
    // nodes with an equal lastUse keeps the tie-break deterministic
    // (earlier-inserted region demotes first).
    PromotedRegion *after = lruTail_;
    while (after != nullptr && after->lastUse > region.lastUse)
        after = after->lruPrev;
    region.lruPrev = after;
    region.lruNext = after != nullptr ? after->lruNext : lruHead_;
    if (region.lruNext != nullptr)
        region.lruNext->lruPrev = &region;
    else
        lruTail_ = &region;
    if (after != nullptr)
        after->lruNext = &region;
    else
        lruHead_ = &region;
}

bool
MigrationEngine::selectVictimLru(Tick now, Tick min_idle,
                                 std::uint64_t &victim)
{
    // The list is kept sorted by lastUse, so the head is the exact
    // minimum the seed found by scanning every promoted region (ties
    // break by insertion order rather than the seed's hash order).
    if (lruHead_ == nullptr)
        return false;
    if (min_idle > 0 && lruHead_->lastUse + min_idle > now)
        return false; // even the coldest region is hot: do not churn
    victim = lruHead_->base;
    return true;
}

bool
MigrationEngine::demoteColdest(Tick now, Tick min_idle)
{
    std::uint64_t victim = 0;
    if (cfg_.hostMem.reclaim == ReclaimPolicy::ActiveInactive) {
        if (!lists_.selectVictim(now, min_idle, victim))
            return false;
        victim *= regionPages_; // the lists key regions by index
    } else if (!selectVictimLru(now, min_idle, victim)) {
        return false;
    }
    demoteRegion(victim, now);
    return true;
}

void
MigrationEngine::demoteRegion(std::uint64_t base, Tick now)
{
    PromotedRegion *region = regionAt(base);
    if (region == nullptr)
        return;
    lruUnlink(*region);
    // Copy the host copy back into fresh SSD pages (§III-C eviction).
    // Clean pages need no copy at all: flash still holds their data.
    // Walking the bitmap's set bits gives the ascending page order
    // regardless of the order the writes arrived in.
    for (std::size_t word = 0; word < region->dirtyPages.size(); ++word) {
        for (std::uint64_t bits = region->dirtyPages[word]; bits != 0;
             bits &= bits - 1) {
            const std::uint64_t lpn =
                base + word * 64
                + static_cast<std::uint64_t>(std::countr_zero(bits));
            if (!cfg_.audit) {
                ssd_.writePageFromHost(lpn, nullptr, now);
                continue;
            }
            PageData data{};
            for (std::uint32_t off = 0; off < kLinesPerPage; ++off)
                data[off] = hostDram_.peek(hostKeyOf(lpn, off));
            ssd_.writePageFromHost(lpn, &data, now);
        }
    }
    promoted_[regionIndex(base)] = nullptr;
    regionSlab_.release(region);
    if (cfg_.hostMem.reclaim == ReclaimPolicy::ActiveInactive)
        lists_.erase(regionIndex(base)); // no-op when chosen via selectVictim
    if (const int tenant = shareTenantOf(base); tenant >= 0) {
        const std::uint64_t region_bytes =
            static_cast<std::uint64_t>(regionPages_) * kPageBytes;
        std::uint64_t &held =
            tenantPromotedBytes_[static_cast<std::size_t>(tenant)];
        held -= std::min(held, region_bytes);
    }

    migStats_.demotions++;
    migStats_.tlbShootdowns++;
    if (shootdownHook_)
        shootdownHook_(cfg_.hostMem.tlbShootdownCost);
}

} // namespace skybyte
