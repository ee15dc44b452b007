/**
 * @file
 * The cacheline-granular write log (§III-B, Figures 11-13).
 *
 * All host writes append 64 B entries to a circular log in SSD DRAM; a
 * two-level hash index (first level keyed by logical page address, second
 * level mapping the 6-bit in-page offset to a 26-bit log offset) gives
 * O(1) lookups and lets compaction enumerate all logged lines of a page
 * in one traversal. Second-level tables start at 4 entries and double
 * when their load factor exceeds 0.75, exactly as the paper sizes them;
 * indexBytes() reproduces the paper's memory accounting (16 B first-level
 * entries, 4 B second-level entries).
 */

#ifndef SKYBYTE_CORE_WRITE_LOG_H
#define SKYBYTE_CORE_WRITE_LOG_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"

namespace skybyte {

/**
 * Resizable second-level hash table: in-page line offset -> log offset.
 *
 * Open addressing with linear probing over packed 4 B entries (6-bit page
 * offset + 26-bit log offset), mirroring the hardware structure.
 */
class LogPageTable
{
  public:
    explicit LogPageTable(std::uint32_t initial_entries = 4,
                          double max_load = 0.75);

    /** Empty the table to @p initial_entries slots, keeping storage. */
    void reset(std::uint32_t initial_entries);

    /** Insert or update the log offset for @p line_off (0..63). */
    void put(std::uint32_t line_off, std::uint32_t log_off);

    /** Latest log offset for @p line_off, if any. */
    std::optional<std::uint32_t> get(std::uint32_t line_off) const;

    /** Number of distinct line offsets present. */
    std::uint32_t count() const { return count_; }

    /** Allocated entry slots (for memory accounting). */
    std::uint32_t capacity() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }

    /** Visit all (line_off, log_off) pairs. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint32_t packed : slots_) {
            if (packed != kEmpty)
                fn(packed >> 26, packed & kLogOffMask);
        }
    }

  private:
    static constexpr std::uint32_t kEmpty = 0xffffffffu;
    static constexpr std::uint32_t kLogOffMask = (1u << 26) - 1;

    void grow();

    std::vector<std::uint32_t> slots_;
    std::uint32_t count_ = 0;
    double maxLoad_;
};

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
     * @param initial_entries initial second-level table size
     * @param max_load second-level resize threshold
     */
    WriteLogBuffer(std::uint64_t capacity_bytes,
                   std::uint32_t initial_entries, double max_load);

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

    /** Latest value of @p line_addr, if logged. */
    std::optional<LineValue> lookup(Addr line_addr) const;

    /** Number of live entries appended (including superseded ones). */
    std::uint64_t size() const { return entries_.size(); }

    std::uint64_t capacityEntries() const { return capacityEntries_; }
    bool full() const { return entries_.size() >= capacityEntries_; }
    bool empty() const { return entries_.empty(); }

    /** Drop every logged line of @p lpa (page migrated away, §III-C). */
    std::uint32_t invalidatePage(std::uint64_t lpa);

    /** Distinct pages currently indexed. */
    std::size_t pageCount() const { return livePages_; }

    /**
     * Visit each indexed page: fn(lpa, table). Used by compaction (L1
     * traversal in Figure 13). Pages come in first-append order, except
     * that invalidatePage moves the last page into the dropped one's
     * place; order-sensitive consumers sort the keys they collect (see
     * SsdController::maybeStartCompaction).
     */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        for (std::size_t i = 0; i < livePages_; ++i)
            fn(pages_[i].lpa, pages_[i].table);
    }

    /** Latest value for @p line_off within @p lpa via the index. */
    std::optional<LineValue> valueAt(std::uint64_t lpa,
                                     std::uint32_t line_off) const;

    /**
     * Apply every logged line of @p lpa onto @p data in one index
     * probe (the per-line valueAt loop cost 64 first-level lookups per
     * page merge). Offsets are distinct, so application order within
     * the table is immaterial. A null @p data only collects the mask.
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
    struct Entry
    {
        Addr lineAddr;
        LineValue value;
    };

    /** One first-level entry: an indexed page and its second level. */
    struct IndexedPage
    {
        std::uint64_t lpa = 0;
        LogPageTable table;
    };

    /** Second-level table of @p lpa, or nullptr when not indexed. */
    const LogPageTable *
    tableOf(std::uint64_t lpa) const
    {
        if (lpa >= slotOf_.size() || slotOf_[lpa] == 0)
            return nullptr;
        return &pages_[slotOf_[lpa] - 1].table;
    }

    std::uint64_t capacityEntries_;
    std::uint32_t initialEntries_;
    double maxLoad_;
    std::vector<Entry> entries_;
    /** First level by lpa: 1 + its position in pages_, 0 if absent. */
    std::vector<std::uint32_t> slotOf_;
    /**
     * The indexed pages in [0, livePages_); the rest are spare tables,
     * so a drained buffer refills without allocating.
     */
    std::vector<IndexedPage> pages_;
    std::size_t livePages_ = 0;
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
    WriteLog(std::uint64_t capacity_bytes, std::uint32_t initial_entries,
             double max_load);

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
     * Value of a line in the DRAINING buffer only (the compaction
     * source); nullopt when not draining or not logged there.
     */
    std::optional<LineValue>
    drainingValueAt(std::uint64_t lpa, std::uint32_t line_off) const
    {
        if (!drainInProgress_)
            return std::nullopt;
        return standby_.valueAt(lpa, line_off);
    }

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
