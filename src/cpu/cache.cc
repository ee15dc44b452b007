#include "cpu/cache.h"

#include <algorithm>
#include <limits>

namespace skybyte {

SetAssocCache::SetAssocCache(std::uint64_t size_bytes, std::uint32_t ways,
                             bool payload)
    : payload_(payload)
{
    ways_ = std::max<std::uint32_t>(ways, 1);
    std::uint64_t lines = std::max<std::uint64_t>(
        size_bytes / kCachelineBytes, ways_);
    std::uint64_t sets = lines / ways_;
    // Round sets down to a power of two for cheap indexing.
    std::uint32_t pow2 = 1;
    while (static_cast<std::uint64_t>(pow2) * 2 <= sets)
        pow2 *= 2;
    numSets_ = pow2;
    const std::size_t n = static_cast<std::size_t>(numSets_) * ways_;
    tags_.assign(n, kInvalidTag);
    lru_.assign(n, 0);
    dirty_.assign(n, 0);
    if (payload_)
        values_.assign(n, 0);
}

std::size_t
SetAssocCache::setBase(Addr line_addr) const
{
    // Mix upper bits so large-stride patterns spread across sets.
    std::uint64_t x = line_addr / kCachelineBytes;
    x ^= x >> 17;
    x *= 0x9e3779b97f4a7c15ULL;
    x ^= x >> 29;
    return static_cast<std::size_t>(x & (numSets_ - 1)) * ways_;
}

std::uint32_t
SetAssocCache::findWay(std::size_t base, Addr tag) const
{
    const Addr *tags = &tags_[base];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (tags[w] == tag)
            return w;
    }
    return ways_;
}

bool
SetAssocCache::access(Addr line_addr, bool is_write, LineValue write_value,
                      LineValue *read_out)
{
    const std::size_t base = setBase(line_addr);
    const std::uint32_t w = findWay(base, line_addr / kCachelineBytes);
    if (w == ways_) {
        misses_++;
        return false;
    }
    const std::size_t i = base + w;
    lru_[i] = ++lruClock_;
    if (is_write) {
        dirty_[i] = 1;
        if (payload_)
            values_[i] = write_value;
    } else if (read_out != nullptr) {
        *read_out = payload_ ? values_[i] : 0;
    }
    hits_++;
    return true;
}

bool
SetAssocCache::probe(Addr line_addr) const
{
    return findWay(setBase(line_addr), line_addr / kCachelineBytes) != ways_;
}

CacheResult
SetAssocCache::fill(Addr line_addr, bool dirty, LineValue value)
{
    CacheResult res;
    const Addr tag = line_addr / kCachelineBytes;
    const std::size_t base = setBase(line_addr);
    const Addr *tags = &tags_[base];
    const std::uint64_t *lru = &lru_[base];
    // One pass: presence, and the victim as the first minimum stamp
    // (empty ways hold stamp 0, so the first empty way wins).
    std::uint32_t victim = 0;
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (tags[w] == tag) {
            // Already present (e.g., racing fills after coalescing).
            const std::size_t i = base + w;
            lru_[i] = ++lruClock_;
            if (dirty) {
                dirty_[i] = 1;
                if (payload_)
                    values_[i] = value;
            }
            res.hit = true;
            return res;
        }
        if (lru[w] < oldest) {
            oldest = lru[w];
            victim = w;
        }
    }
    const std::size_t i = base + victim;
    if (dirty_[i] != 0) {
        res.writeback = true;
        res.victimAddr = tags_[i] * kCachelineBytes;
        if (payload_)
            res.victimValue = values_[i];
    }
    tags_[i] = tag;
    lru_[i] = ++lruClock_;
    dirty_[i] = dirty ? 1 : 0;
    if (payload_)
        values_[i] = value;
    return res;
}

bool
SetAssocCache::invalidate(Addr line_addr, bool *was_dirty)
{
    const std::size_t base = setBase(line_addr);
    const std::uint32_t w = findWay(base, line_addr / kCachelineBytes);
    if (w == ways_)
        return false;
    const std::size_t i = base + w;
    if (was_dirty != nullptr)
        *was_dirty = dirty_[i] != 0;
    tags_[i] = kInvalidTag;
    lru_[i] = 0;
    dirty_[i] = 0;
    return true;
}

bool
MshrFile::contains(Addr line_addr) const
{
    return std::find(lines_.begin(), lines_.end(), line_addr) != lines_.end();
}

bool
MshrFile::allocate(Addr line_addr)
{
    if (full() || contains(line_addr))
        return false;
    lines_.push_back(line_addr);
    return true;
}

void
MshrFile::release(Addr line_addr)
{
    auto it = std::find(lines_.begin(), lines_.end(), line_addr);
    if (it == lines_.end())
        return;
    *it = lines_.back();
    lines_.pop_back();
}

} // namespace skybyte
