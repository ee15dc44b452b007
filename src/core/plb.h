/**
 * @file
 * Promotion Look-aside Buffer (PLB, §III-C and §IV).
 *
 * The PLB sits in the host root complex and tracks every page migration
 * in flight. A 4 KB entry is 24 B: source and destination page addresses
 * (8 B each), an 8 B bitmap of the cachelines already copied to the host,
 * and a valid bit. While an entry is live, reads of the page are served
 * from the SSD DRAM; a write whose migrated bit is set is forwarded to
 * the fresh host copy instead (the copy order guarantees the host copy is
 * never stale for a migrated line).
 *
 * Huge pages (§IV) would need a 4 KB bitmap per entry to track all 32,768
 * cachelines of a 2 MB page, so the PLB becomes two-level instead: the
 * first-level entry carries a 64 B bitmap of *4 KB chunks* already
 * migrated, and a single second-level 8 B bitmap tracks the cachelines of
 * the one chunk currently under migration. Chunks migrate strictly in
 * order, so one second-level bitmap suffices.
 *
 * Each in-flight migration has exactly one record: a slot of a fixed
 * table of `plb_entries` entries. find() scans the live slots for the
 * region that covers a page, so a huge region needs no per-page index,
 * and an entry pointer stays valid until release() frees its slot.
 */

#ifndef SKYBYTE_CORE_PLB_H
#define SKYBYTE_CORE_PLB_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace skybyte {

/** PLB occupancy / traffic statistics. */
struct PlbStats
{
    std::uint64_t allocations = 0;
    std::uint64_t rejectedFull = 0;
    std::uint64_t lineCopies = 0;
    std::uint64_t chunkCompletions = 0;
    std::uint64_t releases = 0;
    std::uint64_t peakOccupancy = 0;
};

/**
 * The promotion look-aside buffer. Entries are keyed by the first 4 KB
 * logical page number of the migrating region (the region is one page
 * for 4 KB migrations, 512 pages for 2 MB huge pages).
 */
class Plb
{
  public:
    /** One in-flight migration. */
    struct Entry
    {
        std::uint64_t baseLpn = 0;     ///< first 4 KB page of the region
        std::uint32_t regionPages = 1; ///< 4 KB chunks in the region
        /** Second-level bitmap: lines copied in the in-flight chunk. */
        std::uint64_t lineBitmap = 0;
        /** Chunk currently under migration (always 0 for 4 KB pages). */
        std::uint32_t currentChunk = 0;
        /** First-level 64 B bitmap: chunks fully migrated (§IV). */
        std::array<std::uint64_t, 8> chunkBitmap{};
        /**
         * Pages dirtied by writes while the region migrates, sorted and
         * unique. Simulator state, not hardware (hardwareBytes() does
         * not count it): the migration engine moves it onto the
         * promoted region before release().
         */
        std::vector<std::uint64_t> dirtyPages;

        /** Does the region cover 4 KB page @p lpn? */
        bool
        covers(std::uint64_t lpn) const
        {
            return lpn - baseLpn < regionPages;
        }

        bool huge() const { return regionPages > 1; }

        /** Has the cacheline @p line of chunk @p chunk been copied? */
        bool lineMigrated(std::uint32_t chunk, std::uint32_t line) const;

        /** Chunks fully migrated so far. */
        std::uint32_t chunksDone() const;

        /**
         * Hardware state this entry occupies: 24 B for a 4 KB entry; a
         * two-level huge entry adds the 64 B first-level bitmap (§IV).
         */
        std::uint32_t hardwareBytes() const;
    };

    explicit Plb(std::uint32_t entries);

    /**
     * Start tracking a migration of @p region_pages 4 KB pages beginning
     * at @p base_lpn.
     * @return the live entry (valid until release()), or nullptr when
     *         the PLB is full or a live entry already covers @p base_lpn.
     */
    Entry *allocate(std::uint64_t base_lpn, std::uint32_t region_pages);

    /** Entry covering 4 KB page @p lpn, or nullptr. */
    Entry *find(std::uint64_t lpn);

    /**
     * Record that line @p line of chunk @p chunk finished copying.
     * Chunks must complete in order (the §IV single second-level entry).
     * @retval true once every line of the whole region has migrated
     */
    bool markLine(Entry &entry, std::uint32_t chunk, std::uint32_t line);

    /** Drop the entry for the region at @p base_lpn (migration done). */
    void release(std::uint64_t base_lpn);

    bool full() const { return live_.size() >= slots_.size(); }
    std::uint64_t occupancy() const { return live_.size(); }
    const PlbStats &stats() const { return stats_; }

  private:
    /** The fixed table; never resized, so entry addresses are stable. */
    std::vector<Entry> slots_;
    /** Slots in use, in no particular order (find() scans only these). */
    std::vector<Entry *> live_;
    /** Slots free for allocate(). */
    std::vector<Entry *> free_;
    PlbStats stats_;
};

} // namespace skybyte

#endif // SKYBYTE_CORE_PLB_H
