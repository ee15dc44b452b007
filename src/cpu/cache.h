/**
 * @file
 * Functional set-associative write-back cache with true-LRU replacement,
 * used for the per-core L1D/L2 and the shared L3 (Table II). Timing is
 * applied by the core model; this class only tracks tags and dirty bits.
 *
 * Storage is structure-of-arrays: four numSets x ways row-major arrays,
 * `tags_` (line address / 64; `kInvalidTag` = ~0 marks an empty way),
 * `lru_` (stamp of the last touch from one cache-wide 64-bit clock; 0
 * for an empty way), `dirty_` and `values_` (the functional payload;
 * empty when the cache is built without payload, see SimConfig::audit,
 * in which case reads and victims report value 0). A lookup scans only
 * the 8-byte tags of its set. The fill victim is the first empty way,
 * else the first way with the minimum stamp; because empty ways carry
 * stamp 0 and live ones at least 1, both are "the first minimum stamp",
 * found in the same pass that checks presence.
 */

#ifndef SKYBYTE_CPU_CACHE_H
#define SKYBYTE_CPU_CACHE_H

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

  private:
    /** Tag of an empty way; no 64 B line address divides down to it. */
    static constexpr Addr kInvalidTag = ~Addr{0};

    /** Index of the first way of @p line_addr's set. */
    std::size_t setBase(Addr line_addr) const;
    /** Way of @p tag in the set at @p base, or ways_ if absent. */
    std::uint32_t findWay(std::size_t base, Addr tag) const;

    std::uint32_t numSets_;
    std::uint32_t ways_;
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> lru_;
    std::vector<std::uint8_t> dirty_;
    std::vector<LineValue> values_; ///< empty without payload
    bool payload_;
    std::uint64_t lruClock_ = 0;
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
