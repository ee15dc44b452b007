/**
 * @file
 * Adaptive page migration (§III-C) plus the TPP-style alternative of
 * §VI-H and the huge-page extension of §IV.
 *
 * SkyByte mode: the SSD controller counts per-page accesses and signals
 * pages that cross the hot threshold; only data-cache-resident pages are
 * promoted. A migration sends an MSI-X interrupt, then copies the region
 * to the host DRAM in cacheline bursts tracked by a Promotion Look-aside
 * Buffer entry (src/core/plb.h). While the copy is in flight, reads are
 * still served from the SSD DRAM and only writes whose PLB migrated bit
 * is set are redirected to the fresh host copy — writes of unmigrated
 * lines land in the SSD and are picked up when their line copies later.
 * On completion the PTE is updated, TLBs are shot down, and the SSD
 * drops the region from its DRAM structures (for huge pages via the
 * custom NVMe notify command of §IV).
 *
 * When the host budget is exhausted, a demotion victim is chosen either
 * by exact LRU (the head of a recency list sorted by last use) or by
 * Linux-style active/inactive lists (src/core/reclaim.h), per
 * HostMemConfig::reclaim. Clean regions demote for free; dirty pages
 * are copied back into fresh SSD pages.
 *
 * TPP mode [43]: hotness is estimated host-side by sampling CXL accesses
 * (less accurate than the SSD's per-page counters, as §VI-H observes),
 * promotion does not require data-cache residency, and each migration
 * pays an extra software fault cost.
 */

#ifndef SKYBYTE_CORE_MIGRATION_H
#define SKYBYTE_CORE_MIGRATION_H

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/config.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "common/slab.h"
#include "core/plb.h"
#include "core/reclaim.h"
#include "core/ssd_controller.h"
#include "cxl/cxl.h"
#include "mem/dram.h"

namespace skybyte {

class TenantMap;

/** Where a cacheline access should be served right now. */
enum class PageHome { Ssd, Host };

/** Migration statistics. */
struct MigrationStats
{
    std::uint64_t promotions = 0; ///< regions (pages unless huge mode)
    std::uint64_t demotions = 0;
    std::uint64_t rejectedPlbFull = 0;
    std::uint64_t rejectedNotCached = 0;
    std::uint64_t tlbShootdowns = 0;
    std::uint64_t inflightWriteRedirects = 0; ///< writes sent to host copy
    std::uint64_t nvmeNotifies = 0;           ///< huge-page drops (§IV)
    /** Promotions rejected by a per-tenant share cap (QoS). */
    std::uint64_t rejectedTenantShare = 0;
};

/**
 * Page-migration engine shared by the SkyByte and TPP policies.
 */
class MigrationEngine
{
  public:
    /**
     * With QosConfig::migrationShare and non-null @p tenants, each
     * tenant's promoted regions may hold at most max(one region,
     * promotedBytesMax x weight share) bytes of host DRAM; promotions
     * beyond the share are rejected and counted in
     * MigrationStats::rejectedTenantShare.
     * @throws std::invalid_argument if hostMem.hugePageBytes spans
     *  more than Plb::kMaxRegionPages pages
     */
    MigrationEngine(const SimConfig &cfg, EventQueue &eq,
                    SsdController &ssd, DramModel &host_dram,
                    CxlLink &link, const TenantMap *tenants = nullptr);

    /** Hook charging TLB-shootdown cost to every core. */
    void
    setShootdownHook(std::function<void(Tick)> hook)
    {
        shootdownHook_ = std::move(hook);
    }

    /**
     * Route decision for an access to cacheline @p line of SSD page
     * @p lpn; refreshes the promoted region's recency and dirtiness.
     * During an in-flight migration the PLB decides per line (§III-C).
     */
    PageHome route(std::uint64_t lpn, std::uint32_t line, Tick now,
                   bool is_write);

    /**
     * SkyByte policy entry: the SSD found @p lpn hot (§III-C).
     * @retval true if a migration was started (the SSD latches the page)
     */
    bool onHotPage(std::uint64_t lpn, Tick now);

    /** TPP policy entry: sample an SSD access host-side. */
    void onSsdAccess(std::uint64_t lpn, Tick now);

    /** Promoted bytes currently attributed to @p tenant (QoS view). */
    std::uint64_t tenantPromotedBytes(std::size_t tenant) const
    {
        return tenant < tenantPromotedBytes_.size()
                   ? tenantPromotedBytes_[tenant]
                   : 0;
    }

    /** 4 KB pages per migrated region (1, or 512 in huge-page mode). */
    std::uint32_t regionPages() const { return regionPages_; }

    /** Host-resident pages, including regions still copying: both hold
     *  host DRAM, so both count against the promotion budget. */
    std::uint64_t promotedPages() const
    {
        return (migStats_.promotions - migStats_.demotions
                + plb_.occupancy())
               * regionPages_;
    }
    std::uint64_t promotedBytes() const
    {
        return promotedPages() * kPageBytes;
    }
    bool isPromoted(std::uint64_t lpn) const
    {
        return regionAt(regionBase(lpn)) != nullptr;
    }
    const MigrationStats &stats() const { return migStats_; }
    const Plb &plb() const { return plb_; }
    const ActiveInactiveLists &reclaimLists() const { return lists_; }

  private:
    /**
     * A region resident in host DRAM. Doubles as an intrusive node of
     * the recency list kept sorted by lastUse (head = coldest), so LRU
     * victim selection reads the head instead of scanning promoted_.
     * Touches arrive with per-core instruction-cursor ticks that
     * interleave non-monotonically across core quanta, so a touched
     * node is re-inserted by a backward walk from the tail; the input
     * is nearly sorted (displacement bounded by quantum interleaving),
     * making the walk amortized O(1). Nodes live in regionSlab_, whose
     * chunks are never freed or compacted, so the list's pointers stay
     * valid while promoted_ grows.
     */
    struct PromotedRegion
    {
        Tick lastUse = 0;
        std::uint64_t base = 0;
        PromotedRegion *lruPrev = nullptr;
        PromotedRegion *lruNext = nullptr;
        /** Pages written while promoted (need copy-back on demotion),
         *  by offset from base; demotion walks them ascending. */
        Plb::PageBitmap dirtyPages{};
    };
    // regionSlab_ frees still-live regions without destroying them.
    static_assert(std::is_trivially_destructible_v<PromotedRegion>);

    /** Mark page @p offset of a region in @p pages. */
    static void
    markDirty(Plb::PageBitmap &pages, std::uint64_t offset)
    {
        pages[offset / 64] |= std::uint64_t{1} << (offset % 64);
    }

    /** Detach @p region from the recency list. */
    void lruUnlink(PromotedRegion &region);

    /** Insert @p region in lastUse order, walking back from the tail. */
    void lruInsertByLastUse(PromotedRegion &region);

    /** Refresh recency after updating region.lastUse. */
    void
    lruTouch(PromotedRegion &region)
    {
        lruUnlink(region);
        lruInsertByLastUse(region);
    }

    /** Begin the promotion of the region at @p base (checks done). */
    bool promote(std::uint64_t base, Tick now, Tick extra_cost);

    /** Issue the next burst of line copies starting at @p line_idx. */
    void scheduleBurst(std::uint64_t base, std::uint64_t line_idx,
                       Tick when);

    /** Burst landed: copy host lines (with payload), advance the PLB. */
    void completeBurst(std::uint64_t base, std::uint64_t line_idx,
                       std::uint32_t lines);

    /** All lines copied: PTE update, shootdown, SSD drop. */
    void finishMigration(std::uint64_t base);

    /**
     * Demote one region back to the SSD.
     * @param min_idle refuse victims used within the last min_idle ticks
     * @retval true if a region was demoted
     */
    bool demoteColdest(Tick now, Tick min_idle = 0);

    /** Copy the host data of @p base back to the SSD and untrack it. */
    void demoteRegion(std::uint64_t base, Tick now);

    /** Exact-LRU victim pick (ReclaimPolicy::LruScan): list head. */
    bool selectVictimLru(Tick now, Tick min_idle, std::uint64_t &victim);

    std::uint64_t
    regionBase(std::uint64_t lpn) const
    {
        return lpn - (lpn % regionPages_);
    }

    /** Dense index of the region at @p base (promoted_, lists_). */
    std::uint64_t
    regionIndex(std::uint64_t base) const
    {
        return base / regionPages_;
    }

    /** Resident region at @p base, or nullptr (also while copying). */
    PromotedRegion *
    regionAt(std::uint64_t base) const
    {
        const std::uint64_t idx = regionIndex(base);
        return idx < promoted_.size() ? promoted_[idx] : nullptr;
    }

    bool
    regionPinned(std::uint64_t base) const
    {
        return base * kPageBytes < cfg_.hostMem.pinnedDeviceBytes;
    }

    /**
     * Tenant whose share region @p base counts against, or -1 when
     * shares are off.
     */
    int shareTenantOf(std::uint64_t base) const;

    /** Idle window a victim must exceed before displacement. */
    static constexpr Tick kAntiThrashIdle =
        1000 * 1000 * kTicksPerNs; // 1 ms

    Addr
    hostKeyOf(std::uint64_t lpn, std::uint32_t off) const
    {
        return lpn * kPageBytes
               + static_cast<Addr>(off) * kCachelineBytes;
    }

    const SimConfig &cfg_;
    EventQueue &eq_;
    SsdController &ssd_;
    DramModel &hostDram_;
    CxlLink &link_;
    Rng rng_;
    std::function<void(Tick)> shootdownHook_;

    std::uint32_t regionPages_ = 1;
    Plb plb_;
    ActiveInactiveLists lists_;
    /** Backing store for PromotedRegion nodes (stable addresses). */
    Slab<PromotedRegion> regionSlab_;
    /** Resident regions by region index; nullptr when not resident. */
    std::vector<PromotedRegion *> promoted_;
    PromotedRegion *lruHead_ = nullptr; ///< coldest promoted region
    PromotedRegion *lruTail_ = nullptr; ///< hottest promoted region
    /** TPP sampled-access scores by region index (0 = unsampled). */
    std::vector<std::uint32_t> tppScores_;
    MigrationStats migStats_;
    /** @name Per-tenant share state (empty = shares disabled). @{ */
    const TenantMap *tenants_;
    std::vector<std::uint64_t> tenantShareBytes_;
    std::vector<std::uint64_t> tenantPromotedBytes_;
    /** @} */
};

} // namespace skybyte

#endif // SKYBYTE_CORE_MIGRATION_H
