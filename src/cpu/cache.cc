#include "cpu/cache.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <string>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace skybyte {

namespace cache_lanes {

std::uint32_t
matchScalar(const std::uint16_t *group, std::uint16_t key)
{
    std::uint32_t mask = 0;
    for (std::uint32_t i = 0; i < kLanes; ++i)
        mask |= static_cast<std::uint32_t>((group[i] & ~1u) == key) << i;
    return mask;
}

std::uint32_t
firstMinScalar(const std::uint16_t *row, std::uint32_t groups)
{
    std::uint32_t first = 0;
    for (std::uint32_t i = 1; i < groups * kLanes; ++i) {
        if (row[i] < row[first])
            first = i;
    }
    return first;
}

#if defined(__SSE2__)

std::uint32_t
matchSse2(const std::uint16_t *group, std::uint16_t key)
{
    const __m128i words = _mm_loadu_si128(
        static_cast<const __m128i *>(static_cast<const void *>(group)));
    const __m128i eq = _mm_cmpeq_epi16(
        _mm_and_si128(words, _mm_set1_epi16(static_cast<short>(0xFFFE))),
        _mm_set1_epi16(static_cast<short>(key)));
    // Saturating pack turns each 0xFFFF lane into one 0xFF byte.
    return static_cast<std::uint32_t>(
        _mm_movemask_epi8(_mm_packs_epi16(eq, _mm_setzero_si128())));
}

std::uint32_t
firstMinSse2(const std::uint16_t *row, std::uint32_t groups)
{
    // A step reads 4 groups; past the row's end it rereads the last
    // group, whose lanes then also sit at higher bits than the first
    // read, so neither the minimum nor its first lane moves.
    const std::uint32_t last = groups - 1;
    auto load = [row, last](std::uint32_t g) {
        return _mm_loadu_si128(static_cast<const __m128i *>(
            static_cast<const void *>(row + std::min(g, last) * kLanes)));
    };
    // Lanes are at most 0x7FFF, so the signed minimum is the minimum.
    __m128i m = _mm_min_epi16(_mm_min_epi16(load(0), load(1)),
                              _mm_min_epi16(load(2), load(3)));
    for (std::uint32_t g = 4; g < groups; ++g)
        m = _mm_min_epi16(m, load(g));
    m = _mm_min_epi16(m, _mm_shuffle_epi32(m, 0x4E));
    m = _mm_min_epi16(m, _mm_shuffle_epi32(m, 0xB1));
    m = _mm_min_epi16(m, _mm_shufflelo_epi16(m, 0xB1));
    m = _mm_shuffle_epi32(_mm_shufflelo_epi16(m, 0), 0);
    // The equality masks of a step's 4 groups (2 bits per lane) share
    // one word, whose lowest set bit is the first minimum: no branch on
    // which group holds it. Only sets wider than 4 groups take a
    // second step.
    for (std::uint32_t g = 0;; g += 4) {
        std::uint64_t eq = 0;
        for (std::uint32_t k = 0; k < 4; ++k) {
            eq |= std::uint64_t{static_cast<std::uint16_t>(
                      _mm_movemask_epi8(_mm_cmpeq_epi16(load(g + k), m)))}
                  << (16 * k);
        }
        if (eq != 0)
            return g * kLanes
                   + static_cast<std::uint32_t>(std::countr_zero(eq)) / 2;
    }
}

#endif

namespace {

#if defined(__SSE2__)
inline std::uint32_t
match(const std::uint16_t *group, std::uint16_t key)
{
    return matchSse2(group, key);
}
inline std::uint32_t
firstMin(const std::uint16_t *row, std::uint32_t groups)
{
    return firstMinSse2(row, groups);
}
#else
inline std::uint32_t
match(const std::uint16_t *group, std::uint16_t key)
{
    return matchScalar(group, key);
}
inline std::uint32_t
firstMin(const std::uint16_t *row, std::uint32_t groups)
{
    return firstMinScalar(row, groups);
}
#endif

} // namespace

} // namespace cache_lanes

using cache_lanes::kLanes;

SetAssocCache::SetAssocCache(std::uint64_t size_bytes, std::uint32_t ways,
                             bool payload)
    : payload_(payload)
{
    if (ways > kMaxWays)
        throw std::invalid_argument("SetAssocCache: more than " +
                                    std::to_string(kMaxWays) + " ways");
    ways_ = std::max<std::uint32_t>(ways, 1);
    lanes_ = (ways_ + kLanes - 1) / kLanes * kLanes;
    std::uint64_t lines = std::max<std::uint64_t>(
        size_bytes / kCachelineBytes, ways_);
    std::uint64_t sets = lines / ways_;
    // Round sets down to a power of two for cheap indexing.
    std::uint32_t pow2 = 1;
    while (static_cast<std::uint64_t>(pow2) * 2 <= sets)
        pow2 *= 2;
    numSets_ = pow2;
    const std::size_t n = static_cast<std::size_t>(numSets_) * ways_;
    tags_.assign(n, 0);
    meta_.assign(static_cast<std::size_t>(numSets_) * 2 * lanes_, 0);
    for (std::size_t s = 0; s < numSets_; ++s) {
        std::uint16_t *stamps = &meta_[metaBase(s) + lanes_];
        std::fill(stamps + ways_, stamps + lanes_, kPadStamp);
    }
    clocks_.assign(numSets_, 0);
    if (payload_)
        values_.assign(n, 0);
}

SetAssocCache::Slot
SetAssocCache::locate(Addr line_addr) const
{
    // Mix upper bits so large-stride patterns spread across sets.
    std::uint64_t x = line_addr / kCachelineBytes;
    x ^= x >> 17;
    x *= 0x9e3779b97f4a7c15ULL;
    x ^= x >> 29;
    // The top 15 bits sit above the dirty bit; 0 is kept for empty ways.
    auto fp = static_cast<std::uint16_t>((x >> 48) & 0xFFFE);
    fp |= static_cast<std::uint16_t>(fp == 0) << 1;
    return {static_cast<std::size_t>(x & (numSets_ - 1)), fp};
}

std::uint32_t
SetAssocCache::findWay(const Slot &slot, Addr tag) const
{
    const std::uint16_t *words = &meta_[metaBase(slot.set)];
    const Addr *tags = &tags_[slot.set * ways_];
    for (std::uint32_t g = 0; g < lanes_; g += kLanes) {
        for (std::uint32_t m = cache_lanes::match(words + g, slot.fingerprint);
             m != 0; m &= m - 1) {
            const std::uint32_t w =
                g + static_cast<std::uint32_t>(std::countr_zero(m));
            if (tags[w] == tag)
                return w;
        }
    }
    return ways_;
}

void
SetAssocCache::touch(std::size_t set, std::uint32_t w)
{
    std::uint16_t &last = clocks_[set];
    if (last == kMaxStamp) [[unlikely]]
        last = renumber(set);
    meta_[metaBase(set) + lanes_ + w] = ++last;
}

std::uint16_t
SetAssocCache::renumber(std::size_t set)
{
    std::uint16_t *stamps = &meta_[metaBase(set) + lanes_];
    // (stamp << 16 | way) of each live way sorts into LRU order.
    std::array<std::uint32_t, kMaxWays> live;
    std::uint32_t k = 0;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (stamps[w] != 0)
            live[k++] = std::uint32_t{stamps[w]} << 16 | w;
    }
    std::sort(live.begin(), live.begin() + k);
    for (std::uint32_t r = 0; r < k; ++r)
        stamps[live[r] & 0xFFFF] = static_cast<std::uint16_t>(r + 1);
    return static_cast<std::uint16_t>(k);
}

bool
SetAssocCache::access(Addr line_addr, bool is_write, LineValue write_value,
                      LineValue *read_out)
{
    const Slot slot = locate(line_addr);
    const std::uint32_t w = findWay(slot, line_addr / kCachelineBytes);
    if (w == ways_) {
        misses_++;
        return false;
    }
    touch(slot.set, w);
    const std::size_t i = slot.set * ways_ + w;
    if (is_write) {
        meta_[metaBase(slot.set) + w] |= 1;
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
    return findWay(locate(line_addr), line_addr / kCachelineBytes) != ways_;
}

CacheResult
SetAssocCache::fill(Addr line_addr, bool dirty, LineValue value)
{
    CacheResult res;
    const Addr tag = line_addr / kCachelineBytes;
    const Slot slot = locate(line_addr);
    std::uint16_t *words = &meta_[metaBase(slot.set)];
    std::uint32_t w = findWay(slot, tag);
    if (w != ways_) {
        // Already present (e.g., racing fills after coalescing).
        touch(slot.set, w);
        if (dirty) {
            words[w] |= 1;
            if (payload_)
                values_[slot.set * ways_ + w] = value;
        }
        res.hit = true;
        return res;
    }
    // The first minimum stamp: the first empty way (stamp 0), else LRU.
    w = cache_lanes::firstMin(words + lanes_, lanes_ / kLanes);
    const std::size_t i = slot.set * ways_ + w;
    if ((words[w] & 1) != 0) {
        res.writeback = true;
        res.victimAddr = tags_[i] * kCachelineBytes;
        if (payload_)
            res.victimValue = values_[i];
    }
    tags_[i] = tag;
    words[w] = static_cast<std::uint16_t>(slot.fingerprint | (dirty ? 1 : 0));
    touch(slot.set, w);
    if (payload_)
        values_[i] = value;
    return res;
}

bool
SetAssocCache::invalidate(Addr line_addr, bool *was_dirty)
{
    const Slot slot = locate(line_addr);
    const std::uint32_t w = findWay(slot, line_addr / kCachelineBytes);
    if (w == ways_)
        return false;
    std::uint16_t *words = &meta_[metaBase(slot.set)];
    if (was_dirty != nullptr)
        *was_dirty = (words[w] & 1) != 0;
    words[w] = 0;
    words[lanes_ + w] = 0;
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
