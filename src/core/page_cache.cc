#include "core/page_cache.h"

#include <algorithm>

namespace skybyte {

PageCache::PageCache(std::uint64_t capacity_bytes, std::uint32_t ways,
                     bool payload)
{
    ways_ = std::max<std::uint32_t>(ways, 1);
    capacityPages_ = std::max<std::uint64_t>(capacity_bytes / kPageBytes,
                                             ways_);
    std::uint64_t sets = capacityPages_ / ways_;
    std::uint32_t pow2 = 1;
    while (static_cast<std::uint64_t>(pow2) * 2 <= sets)
        pow2 *= 2;
    numSets_ = pow2;
    capacityPages_ = static_cast<std::uint64_t>(numSets_) * ways_;
    entries_.assign(capacityPages_, CachedPage{});
    if (payload)
        data_.assign(capacityPages_, PageData{});
}

std::uint32_t
PageCache::setOf(std::uint64_t lpn) const
{
    std::uint64_t x = lpn;
    x ^= x >> 15;
    x *= 0x9e3779b97f4a7c15ULL;
    x ^= x >> 31;
    return static_cast<std::uint32_t>(x & (numSets_ - 1));
}

CachedPage *
PageCache::lookup(std::uint64_t lpn)
{
    CachedPage *set = &entries_[static_cast<std::size_t>(setOf(lpn))
                                * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].lpn == lpn) {
            set[w].lru = ++lruClock_;
            hits_++;
            return &set[w];
        }
    }
    misses_++;
    return nullptr;
}

const CachedPage *
PageCache::probe(std::uint64_t lpn) const
{
    const CachedPage *set =
        &entries_[static_cast<std::size_t>(setOf(lpn)) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].lpn == lpn)
            return &set[w];
    }
    return nullptr;
}

CachedPage *
PageCache::fill(std::uint64_t lpn, PageEvict &ev, PageData *victim_data)
{
    ev = PageEvict{};
    CachedPage *set = &entries_[static_cast<std::size_t>(setOf(lpn))
                                * ways_];
    CachedPage *victim = nullptr;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].lpn == lpn) {
            // Refresh in place (racing fills); masks survive.
            set[w].lru = ++lruClock_;
            return &set[w];
        }
    }
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (victim == nullptr || set[w].lru < victim->lru)
            victim = &set[w];
    }
    if (victim->valid) {
        ev.evicted = true;
        ev.dirty = victim->dirty;
        ev.lpn = victim->lpn;
        ev.touchedMask = victim->touchedMask;
        ev.dirtyMask = victim->dirtyMask;
        // Only a dirty victim needs its payload preserved (writeback);
        // clean evictions drop the page without touching the 4 KB.
        if (victim->dirty && victim_data != nullptr && !data_.empty())
            *victim_data = data_[indexOf(*victim)];
    } else {
        resident_++;
    }
    victim->lpn = lpn;
    victim->valid = true;
    victim->dirty = false;
    victim->touchedMask = 0;
    victim->dirtyMask = 0;
    victim->lru = ++lruClock_;
    return victim;
}

bool
PageCache::invalidate(std::uint64_t lpn, PageEvict *ev,
                      PageData *victim_data)
{
    CachedPage *set = &entries_[static_cast<std::size_t>(setOf(lpn))
                                * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].lpn == lpn) {
            if (ev != nullptr) {
                ev->evicted = true;
                ev->dirty = set[w].dirty;
                ev->lpn = lpn;
                ev->touchedMask = set[w].touchedMask;
                ev->dirtyMask = set[w].dirtyMask;
            }
            if (victim_data != nullptr && !data_.empty())
                *victim_data = data_[indexOf(set[w])];
            set[w].valid = false;
            resident_--;
            return true;
        }
    }
    return false;
}

} // namespace skybyte
