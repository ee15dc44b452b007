/**
 * @file
 * The cacheline-granular write log (§III-B, Figures 11-13).
 *
 * All host writes append 64 B entries to a circular log in SSD DRAM. The
 * index has two levels: the first is keyed by logical page address, and
 * each indexed page records which of its 64 lines are logged as one
 * 64-bit line mask. That answers lookups in O(1) and lets compaction
 * enumerate a page's logged lines in one traversal.
 *
 * The hardware's second level is a per-page hash table that starts at 4
 * entries and doubles past load factor 0.75. Its shape decides no
 * timing (the index latency is the FPGA-measured
 * SsdCacheConfig::writeLogIndexLatency), so only its size is modelled:
 * pageIndexBytes() gives a page's share of the paper's accounting from
 * its logged-line count, and indexBytes() sums it.
 *
 * Line values are kept only with payload (SimConfig::audit). Without
 * it, the log still knows which lines it holds and lookup() returns 0
 * for each of them, as the other payload-off components do.
 */

#ifndef SKYBYTE_CORE_WRITE_LOG_H
#define SKYBYTE_CORE_WRITE_LOG_H

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/types.h"

namespace skybyte {

/** Aggregate write-log statistics. */
struct WriteLogStats
{
    std::uint64_t appends = 0;
    std::uint64_t updateHits = 0;      ///< append superseded an older entry
    std::uint64_t overflowAppends = 0; ///< appended beyond capacity
    std::uint64_t indexBytesPeak = 0;
};

/**
 * One log buffer (the design double-buffers two of these).
 */
class WriteLogBuffer
{
  public:
    /**
     * @param capacity_bytes log array capacity (64 B per entry)
     * @param payload keep line values (SimConfig::audit)
     */
    explicit WriteLogBuffer(std::uint64_t capacity_bytes,
                            bool payload = true);

    /**
     * Index bytes of one page holding @p lines (>= 1) logged lines, per
     * the paper (§III-B): a 16 B first-level entry plus 4 B per
     * second-level slot, where the slots start at 4 and double while
     * the load factor lines / slots exceeds 0.75.
     */
    static constexpr std::uint64_t
    pageIndexBytes(std::uint32_t lines)
    {
        std::uint64_t slots = 4;
        while (4ULL * lines > 3 * slots)
            slots *= 2;
        return 16 + 4 * slots;
    }

    /**
     * Append one written line. Appending past capacity is allowed (the
     * caller accounts it as overflow) so that host writes never block.
     * @param tenant owning-tenant index for per-tenant QoS accounting;
     *               -1 (the default) skips it
     * @retval true if this superseded an older entry for the same line
     */
    bool append(Addr line_addr, LineValue value, int tenant = -1);

    /** Size the per-tenant append counters (resets them to zero). */
    void setTenantCount(std::size_t n);

    /** Entries appended by @p tenant since the last clear(). */
    std::uint64_t tenantEntries(std::size_t tenant) const
    {
        return tenant < tenantEntries_.size() ? tenantEntries_[tenant]
                                              : 0;
    }

    /**
     * Latest value of @p line_addr if logged (0 without payload);
     * nullopt when not logged.
     */
    std::optional<LineValue> lookup(Addr line_addr) const;

    /** Entries appended since the last clear(), superseded included. */
    std::uint64_t size() const { return appended_; }

    std::uint64_t capacityEntries() const { return capacityEntries_; }
    bool full() const { return appended_ >= capacityEntries_; }
    bool empty() const { return appended_ == 0; }

    /**
     * Drop every logged line of @p lpa (page migrated away, §III-C).
     * @return the number of lines dropped
     */
    std::uint32_t invalidatePage(std::uint64_t lpa);

    /** Distinct pages currently indexed. */
    std::size_t pageCount() const { return pages_.size(); }

    /**
     * Visit each indexed page: fn(lpa, line mask). Used by compaction
     * (L1 traversal in Figure 13). Pages come in first-append order,
     * except that invalidatePage moves the last page into the dropped
     * one's place; order-sensitive consumers sort the keys they collect
     * (see SsdController::maybeStartCompaction).
     */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        for (const IndexedPage &page : pages_)
            fn(page.lpa, page.mask);
    }

    /**
     * Apply every logged line of @p lpa onto @p data (0 for each line
     * without payload). A null @p data only collects the mask.
     * @return bitmask of the logged line offsets
     */
    std::uint64_t mergePageInto(std::uint64_t lpa, PageData *data) const;

    /**
     * Index memory per the paper's accounting (§III-B). Maintained
     * incrementally on append/invalidate/clear so the per-append peak
     * tracking in WriteLog::append stays O(1); indexBytesRecomputed()
     * is the reference walk the property tests check against.
     */
    std::uint64_t indexBytes() const { return indexBytes_; }

    /** O(n) recomputation of indexBytes() (tests only). */
    std::uint64_t indexBytesRecomputed() const;

    /** Reset to empty (after compaction drains this buffer). */
    void clear();

  private:
    /** One first-level entry: an indexed page and its logged lines. */
    struct IndexedPage
    {
        std::uint64_t lpa;
        std::uint64_t mask;
    };

    /** Bitmask of the logged lines of @p lpa (0 when not indexed). */
    std::uint64_t
    maskOf(std::uint64_t lpa) const
    {
        if (lpa >= slotOf_.size() || slotOf_[lpa] == 0)
            return 0;
        return pages_[slotOf_[lpa] - 1].mask;
    }

    std::uint64_t capacityEntries_;
    bool payload_;
    std::uint64_t appended_ = 0;
    /** First level by lpa: 1 + its position in pages_, 0 if absent. */
    std::vector<std::uint32_t> slotOf_;
    std::vector<IndexedPage> pages_;
    /** Latest value per logged line (payload only). */
    std::map<Addr, LineValue> values_;
    std::uint64_t indexBytes_ = 0;
    /** Per-tenant appended-entry counts (empty unless QoS-configured). */
    std::vector<std::uint64_t> tenantEntries_;
};

/**
 * The double-buffered write log: an active buffer receiving appends and
 * an optional draining buffer under background compaction. Lookups probe
 * both (newest first), as §III-B requires.
 */
class WriteLog
{
  public:
    /**
     * @param capacity_bytes capacity of each buffer (64 B per entry)
     * @param payload keep line values (SimConfig::audit)
     */
    explicit WriteLog(std::uint64_t capacity_bytes, bool payload = true);

    /** Append to the active buffer (optionally tenant-attributed). */
    void append(Addr line_addr, LineValue value, int tenant = -1);

    /**
     * Configure per-tenant live-entry quotas (QosConfig::writeLogQuota):
     * quotas[t] is the most log entries tenant t may hold across both
     * buffers before overQuota(t) trips. Resets the per-tenant counts.
     */
    void setTenantQuotas(std::vector<std::uint64_t> quotas);

    /** Live entries (active + draining buffer) held by @p tenant. */
    std::uint64_t tenantLiveEntries(std::size_t tenant) const
    {
        return active_.tenantEntries(tenant)
               + standby_.tenantEntries(tenant);
    }

    /** True when quotas are configured and @p tenant has spent its. */
    bool overQuota(std::size_t tenant) const
    {
        return tenant < tenantQuotas_.size()
               && tenantLiveEntries(tenant) >= tenantQuotas_[tenant];
    }

    /** Probe active then draining buffer. */
    std::optional<LineValue> lookup(Addr line_addr) const;

    /** The active buffer reached capacity and no drain is in progress. */
    bool needCompaction() const
    {
        return active_.full() && !draining();
    }

    bool draining() const { return drainInProgress_; }

    /**
     * Swap buffers and expose the filled one for compaction.
     * Precondition: needCompaction().
     */
    WriteLogBuffer &beginCompaction();

    /** Compaction finished: reclaim the drained buffer. */
    void finishCompaction();

    /** Invalidate a migrated page in both buffers. */
    void invalidatePage(std::uint64_t lpa);

    /**
     * Gather every draining-buffer line of @p lpa into @p out in one
     * index probe (compaction's L1 traversal). A null @p out only
     * collects the mask.
     * @return bitmask of the draining lines; 0 when not draining.
     */
    std::uint64_t
    gatherDraining(std::uint64_t lpa, PageData *out) const
    {
        if (!drainInProgress_)
            return 0;
        return standby_.mergePageInto(lpa, out);
    }

    /**
     * Newest-first merged overlay of @p lpa onto @p data: draining
     * lines first, then active lines over them.
     */
    void mergePageInto(std::uint64_t lpa, PageData &data) const;

    const WriteLogStats &stats() const { return stats_; }
    const WriteLogBuffer &activeBuffer() const { return active_; }
    const WriteLogBuffer &standbyBuffer() const { return standby_; }

    /** Combined index footprint of both buffers. */
    std::uint64_t indexBytes() const
    {
        return active_.indexBytes() + standby_.indexBytes();
    }

  private:
    WriteLogBuffer active_;
    WriteLogBuffer standby_;
    bool drainInProgress_ = false;
    WriteLogStats stats_;
    /** Per-tenant live-entry quotas (empty = quotas disabled). */
    std::vector<std::uint64_t> tenantQuotas_;
};

} // namespace skybyte

#endif // SKYBYTE_CORE_WRITE_LOG_H
