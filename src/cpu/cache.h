/**
 * @file
 * Functional set-associative write-back cache with true-LRU replacement,
 * used for the per-core L1D/L2 and the shared L3 (Table II). Timing is
 * applied by the core model; this class only tracks tags and dirty bits.
 *
 * Layout. A set's ways are padded to a whole number of 8-lane groups
 * (`lanes_`). Each set owns one block of 16-bit words in `meta_`: a
 * row of way words, then a row of LRU stamps.
 * - A way word holds a 15-bit fingerprint of its line (the top bits of
 *   the set hash, never 0) above the dirty bit (bit 0). An empty way
 *   and a pad lane hold 0, which no fingerprint matches.
 * - A stamp is the way's last touch on the set's own clock (`clocks_`):
 *   0 for an empty way, 1..kMaxStamp for a live one, and kPadStamp
 *   (above every live stamp) in pad lanes. Stamps of live ways in a set
 *   are unique, so their order is the set's LRU order.
 * - `tags_` (line address / 64, numSets x ways, unpadded) is the exact
 *   check. It is read only for fingerprint candidates and the victim;
 *   `values_` is the functional payload, empty when the cache is built
 *   without payload (see SimConfig::audit; reads and victims then
 *   report value 0).
 *
 * A lookup matches the fingerprint against the way words one group at
 * a time and checks each candidate's tag. The fill victim is the first
 * way holding the set's minimum stamp: the first empty way if one
 * exists, else the least recently used. The victim scan takes the
 * minimum over the row, then ORs the equality masks of up to 4 groups
 * into one word and takes its lowest set bit, so up to 32 ways it has
 * no data-dependent branch; wider sets take one more such step per 4
 * groups. When a set's clock reaches
 * kMaxStamp its live stamps are renumbered 1..k in their current order,
 * so the order, and every victim, stays what a wide global clock gives.
 *
 * The two group operations, fingerprint match and first minimum, live
 * in `cache_lanes`: SSE2 versions on every x86-64 build and plain
 * scalar loops over the same rows, which are always compiled so the
 * tests can check one against the other.
 */

#ifndef SKYBYTE_CPU_CACHE_H
#define SKYBYTE_CPU_CACHE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/types.h"

namespace skybyte {

/** Outcome of a cache access or fill. */
struct CacheResult
{
    bool hit = false;
    /** A dirty victim was evicted and must be written to the next level. */
    bool writeback = false;
    Addr victimAddr = 0;
    /** Functional payload of the dirty victim. */
    LineValue victimValue = 0;
};

/** Row operations on groups of kLanes 16-bit lanes. */
namespace cache_lanes {

inline constexpr std::uint32_t kLanes = 8;

/** Bit i is set when lane i of @p group, its low (dirty) bit cleared,
 *  equals @p key (whose low bit is clear). */
std::uint32_t matchScalar(const std::uint16_t *group, std::uint16_t key);
/** Index of the first lane holding the minimum of @p groups groups
 *  starting at @p row; every lane is at most 0x7FFF. */
std::uint32_t firstMinScalar(const std::uint16_t *row, std::uint32_t groups);

#if defined(__SSE2__)
std::uint32_t matchSse2(const std::uint16_t *group, std::uint16_t key);
std::uint32_t firstMinSse2(const std::uint16_t *row, std::uint32_t groups);
#endif

} // namespace cache_lanes

/**
 * Set-associative cache of 64 B lines.
 */
class SetAssocCache
{
  public:
    /**
     * @param size_bytes capacity
     * @param ways associativity (clamped so at least one set exists)
     * @param payload keep each line's functional value
     * @throws std::invalid_argument if @p ways exceeds kMaxWays
     */
    SetAssocCache(std::uint64_t size_bytes, std::uint32_t ways,
                  bool payload = true);

    /** Build from a CacheConfig. */
    explicit SetAssocCache(const CacheConfig &cfg, bool payload = true)
        : SetAssocCache(cfg.sizeBytes, cfg.ways, payload)
    {}

    /**
     * Look up @p line_addr; on hit, update LRU and (for writes) the dirty
     * bit and functional value. Does NOT allocate on miss — call fill().
     *
     * @param write_value functional payload stored on a write hit
     * @param read_out    receives the line's payload on a read hit
     */
    bool access(Addr line_addr, bool is_write, LineValue write_value = 0,
                LineValue *read_out = nullptr);

    /** True if the line is present (no LRU update). */
    bool probe(Addr line_addr) const;

    /**
     * Insert @p line_addr, evicting the LRU way if the set is full.
     * @param dirty insert in dirty state (writeback fills)
     * @param value functional payload of the inserted line
     * @return eviction information
     */
    CacheResult fill(Addr line_addr, bool dirty, LineValue value = 0);

    /** Remove a line if present; @return true and its dirty state. */
    bool invalidate(Addr line_addr, bool *was_dirty = nullptr);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t ways() const { return ways_; }

    /** Largest associativity; a renumbered set's stamps stay below the
     *  clock limit. */
    static constexpr std::uint32_t kMaxWays = 1024;
    /** The last stamp a set's clock hands out before renumbering. */
    static constexpr std::uint16_t kMaxStamp = 0x7FFE;

  private:
    /** Stamp of a pad lane: above every live stamp, never a victim. */
    static constexpr std::uint16_t kPadStamp = 0x7FFF;

    /** A line's set and way-word fingerprint. */
    struct Slot
    {
        std::size_t set;
        std::uint16_t fingerprint;
    };

    /** Set hash: the set from the low bits, the fingerprint from the top. */
    Slot locate(Addr line_addr) const;
    /** First way word of @p set; its stamps follow lanes_ later. */
    std::size_t metaBase(std::size_t set) const { return set * 2 * lanes_; }
    /** Way of @p tag in @p slot's set, or ways_ if absent. */
    std::uint32_t findWay(const Slot &slot, Addr tag) const;
    /** Stamp way @p w of @p set as its most recent touch. */
    void touch(std::size_t set, std::uint32_t w);
    /** Renumber @p set's live stamps 1..k in order; @return k. */
    std::uint16_t renumber(std::size_t set);

    std::uint32_t numSets_;
    std::uint32_t ways_;
    /** ways_ rounded up to a whole number of cache_lanes::kLanes. */
    std::uint32_t lanes_;
    std::vector<Addr> tags_;
    /** Per set: lanes_ way words, then lanes_ stamps. */
    std::vector<std::uint16_t> meta_;
    /** Per set: the last stamp handed out. */
    std::vector<std::uint16_t> clocks_;
    std::vector<LineValue> values_; ///< empty without payload
    bool payload_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Miss-status holding register file with same-line coalescing: tracks the
 * set of distinct in-flight line addresses and enforces the entry budget.
 * The entries are an unordered array of at most `capacity` lines,
 * reserved at construction and searched linearly.
 */
class MshrFile
{
  public:
    explicit MshrFile(std::uint32_t entries) : capacity_(entries)
    {
        lines_.reserve(entries);
    }

    bool full() const { return lines_.size() >= capacity_; }

    /** True if @p line_addr already has an entry (coalesce target). */
    bool contains(Addr line_addr) const;

    /**
     * Allocate an entry for @p line_addr.
     * @retval false if full or already present.
     */
    bool allocate(Addr line_addr);

    /** Release the entry for @p line_addr (idempotent). */
    void release(Addr line_addr);

    std::size_t occupancy() const { return lines_.size(); }
    std::uint32_t capacity() const { return capacity_; }

  private:
    std::uint32_t capacity_;
    /** In-flight lines, in no particular order. */
    std::vector<Addr> lines_;
};

} // namespace skybyte

#endif // SKYBYTE_CPU_CACHE_H
