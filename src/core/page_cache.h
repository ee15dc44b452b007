/**
 * @file
 * Page-granular read-write data cache in SSD DRAM (§III-B). Set
 * associative with true LRU (the paper notes LRU keeps a requested page
 * resident until its thread resumes). Each entry tracks per-line
 * touched/dirty bitmaps so evictions can feed the Figure 5/6 locality
 * histograms and Base-CSSD's dirty-page writebacks.
 *
 * Entries hold metadata only, so a lookup walks 40-byte records. The
 * 4 KB payloads live in a side array, parallel to the entries, that is
 * allocated only when the cache carries payload (SimConfig::audit);
 * data() returns an entry's payload, or nullptr without one. The fill
 * path is copy-free: fill() returns the (possibly recycled) slot and
 * the caller writes the payload directly into data(slot). Evictions
 * report metadata only; the victim payload is copied out solely when it
 * was dirty and the caller supplied a buffer for the writeback.
 */

#ifndef SKYBYTE_CORE_PAGE_CACHE_H
#define SKYBYTE_CORE_PAGE_CACHE_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "ssd/ftl.h"

namespace skybyte {

/** One resident page. */
struct CachedPage
{
    std::uint64_t lpn = 0;
    bool valid = false;
    bool dirty = false;          ///< any line dirty (Base-CSSD mode)
    std::uint64_t touchedMask = 0; ///< lines read/written while resident
    std::uint64_t dirtyMask = 0;   ///< lines written while resident
    std::uint64_t lru = 0;
};

/** Eviction metadata of an insert/invalidate (no payload; see fill). */
struct PageEvict
{
    bool evicted = false;
    bool dirty = false;
    std::uint64_t lpn = 0;
    std::uint64_t touchedMask = 0;
    std::uint64_t dirtyMask = 0;
};

/**
 * Set-associative cache of 4 KB pages.
 */
class PageCache
{
  public:
    /** @param payload keep each resident page's 4 KB contents */
    PageCache(std::uint64_t capacity_bytes, std::uint32_t ways,
              bool payload = true);

    /** Find @p lpn (updates LRU). */
    CachedPage *lookup(std::uint64_t lpn);

    /** Find @p lpn without touching LRU. */
    const CachedPage *probe(std::uint64_t lpn) const;

    /**
     * Contents of resident @p page (an entry of this cache), or nullptr
     * when the cache carries no payload.
     */
    PageData *
    data(const CachedPage &page)
    {
        return data_.empty() ? nullptr : &data_[indexOf(page)];
    }

    /**
     * Claim the slot for @p lpn, evicting LRU if needed, and return it
     * for the caller to write data(slot) in place. On a re-fill of a
     * resident page the slot keeps its masks (refresh). @p ev reports
     * what was evicted; a dirty victim's payload is copied into
     * @p victim_data when non-null and the cache carries payload (the
     * caller owns the writeback).
     */
    CachedPage *fill(std::uint64_t lpn, PageEvict &ev,
                     PageData *victim_data = nullptr);

    /**
     * Remove @p lpn (migration completion). @retval true if present.
     * @p ev as in fill(); @p victim_data, when non-null and the cache
     * carries payload, receives the page's contents, dirty or not.
     */
    bool invalidate(std::uint64_t lpn, PageEvict *ev = nullptr,
                    PageData *victim_data = nullptr);

    std::uint64_t capacityPages() const { return capacityPages_; }
    std::uint64_t residentPages() const { return resident_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Iterate resident pages (statically dispatched; no std::function). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (auto &page : entries_) {
            if (page.valid)
                fn(page);
        }
    }

  private:
    std::uint32_t setOf(std::uint64_t lpn) const;

    std::size_t
    indexOf(const CachedPage &page) const
    {
        return static_cast<std::size_t>(&page - entries_.data());
    }

    std::uint64_t capacityPages_;
    std::uint32_t ways_;
    std::uint32_t numSets_;
    std::vector<CachedPage> entries_;
    /** Payload of entries_[i]; empty when the cache carries none. */
    std::vector<PageData> data_;
    std::uint64_t lruClock_ = 0;
    std::uint64_t resident_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace skybyte

#endif // SKYBYTE_CORE_PAGE_CACHE_H
