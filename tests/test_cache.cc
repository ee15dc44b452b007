/**
 * @file
 * Unit tests for the set-associative cache and MSHR file: hit/miss, true
 * LRU eviction, dirty writebacks with functional values, invalidation,
 * MSHR capacity/coalescing, and a randomized comparison against a
 * trivially correct reference cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cpu/cache.h"

namespace skybyte {
namespace {

Addr
line(std::uint64_t i)
{
    return i * kCachelineBytes;
}

TEST(SetAssocCache, MissThenHitAfterFill)
{
    SetAssocCache c(4096, 4);
    EXPECT_FALSE(c.access(line(1), false));
    c.fill(line(1), false);
    EXPECT_TRUE(c.access(line(1), false));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCache, LruEvictsOldest)
{
    // Single-set cache: 4 lines, 4 ways.
    SetAssocCache c(4 * kCachelineBytes, 4);
    ASSERT_EQ(c.numSets(), 1u);
    for (std::uint64_t i = 0; i < 4; ++i)
        c.fill(line(i), false);
    c.access(line(0), false); // refresh 0; line 1 is now LRU
    CacheResult r = c.fill(line(10), false);
    EXPECT_FALSE(r.writeback); // victim was clean
    EXPECT_FALSE(c.probe(line(1)));
    EXPECT_TRUE(c.probe(line(0)));
}

TEST(SetAssocCache, DirtyVictimWritesBackWithValue)
{
    SetAssocCache c(4 * kCachelineBytes, 4);
    for (std::uint64_t i = 0; i < 4; ++i)
        c.fill(line(i), false);
    c.access(line(2), true, 0xbeef);
    c.access(line(0), false);
    c.access(line(1), false);
    c.access(line(3), false);
    // line 2 is LRU and dirty.
    CacheResult r = c.fill(line(20), false);
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victimAddr, line(2));
    EXPECT_EQ(r.victimValue, 0xbeefu);
}

TEST(SetAssocCache, WriteSetsValueReadReturnsIt)
{
    SetAssocCache c(4096, 4);
    c.fill(line(5), true, 111);
    LineValue v = 0;
    EXPECT_TRUE(c.access(line(5), false, 0, &v));
    EXPECT_EQ(v, 111u);
    c.access(line(5), true, 222);
    EXPECT_TRUE(c.access(line(5), false, 0, &v));
    EXPECT_EQ(v, 222u);
}

TEST(SetAssocCache, FillExistingUpgradesDirty)
{
    SetAssocCache c(4096, 4);
    c.fill(line(7), false);
    CacheResult r = c.fill(line(7), true, 9);
    EXPECT_TRUE(r.hit);
    bool was_dirty = false;
    EXPECT_TRUE(c.invalidate(line(7), &was_dirty));
    EXPECT_TRUE(was_dirty);
}

TEST(SetAssocCache, InvalidateRemovesLine)
{
    SetAssocCache c(4096, 4);
    c.fill(line(3), false);
    EXPECT_TRUE(c.invalidate(line(3)));
    EXPECT_FALSE(c.probe(line(3)));
    EXPECT_FALSE(c.invalidate(line(3)));
}

TEST(SetAssocCache, CapacityHonoured)
{
    // 64 lines; fill 128 distinct lines; at most 64 can remain.
    SetAssocCache c(64 * kCachelineBytes, 8);
    for (std::uint64_t i = 0; i < 128; ++i)
        c.fill(line(i), false);
    int resident = 0;
    for (std::uint64_t i = 0; i < 128; ++i)
        resident += c.probe(line(i)) ? 1 : 0;
    EXPECT_LE(resident, 64);
    EXPECT_GT(resident, 32); // hashing should spread reasonably
}

TEST(MshrFile, CapacityAndRelease)
{
    MshrFile m(2);
    EXPECT_TRUE(m.allocate(line(1)));
    EXPECT_TRUE(m.allocate(line(2)));
    EXPECT_TRUE(m.full());
    EXPECT_FALSE(m.allocate(line(3)));
    m.release(line(1));
    EXPECT_FALSE(m.full());
    EXPECT_TRUE(m.allocate(line(3)));
}

TEST(MshrFile, NoDuplicateEntries)
{
    MshrFile m(4);
    EXPECT_TRUE(m.allocate(line(1)));
    EXPECT_TRUE(m.contains(line(1)));
    EXPECT_FALSE(m.allocate(line(1))); // coalesce, not allocate
    EXPECT_EQ(m.occupancy(), 1u);
}

TEST(MshrFile, ReleaseMiddleKeepsTheOthers)
{
    MshrFile m(8);
    for (std::uint64_t i = 0; i < 8; ++i)
        ASSERT_TRUE(m.allocate(line(i)));
    EXPECT_TRUE(m.full());
    m.release(line(3));
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(m.contains(line(i)), i != 3) << "line " << i;
    EXPECT_EQ(m.occupancy(), 7u);
    EXPECT_TRUE(m.allocate(line(8)));
    EXPECT_TRUE(m.contains(line(8)));
    EXPECT_TRUE(m.full());
}

TEST(MshrFile, ReleaseIsIdempotent)
{
    MshrFile m(4);
    m.allocate(line(1));
    m.release(line(1));
    m.release(line(1));
    EXPECT_EQ(m.occupancy(), 0u);
}

/**
 * Trivially correct true-LRU cache: each set is a list of lines in MRU
 * order, indexed with the same set hash as SetAssocCache.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint32_t num_sets, std::uint32_t ways)
        : ways_(ways), sets_(num_sets)
    {}

    bool
    access(Addr a, bool is_write, LineValue write_value, LineValue *read_out)
    {
        auto &set = sets_[setOf(a)];
        auto it = find(set, a);
        if (it == set.end()) {
            misses_++;
            return false;
        }
        Line l = *it;
        set.erase(it);
        if (is_write) {
            l.dirty = true;
            l.value = write_value;
        } else if (read_out != nullptr) {
            *read_out = l.value;
        }
        set.insert(set.begin(), l);
        hits_++;
        return true;
    }

    bool
    probe(Addr a)
    {
        auto &set = sets_[setOf(a)];
        return find(set, a) != set.end();
    }

    CacheResult
    fill(Addr a, bool dirty, LineValue value)
    {
        CacheResult res;
        auto &set = sets_[setOf(a)];
        auto it = find(set, a);
        if (it != set.end()) {
            Line l = *it;
            set.erase(it);
            if (dirty) {
                l.dirty = true;
                l.value = value;
            }
            set.insert(set.begin(), l);
            res.hit = true;
            return res;
        }
        if (set.size() == ways_) {
            const Line lru = set.back();
            set.pop_back();
            if (lru.dirty) {
                res.writeback = true;
                res.victimAddr = lru.addr;
                res.victimValue = lru.value;
            }
        }
        set.insert(set.begin(), Line{a, dirty, value});
        return res;
    }

    bool
    invalidate(Addr a, bool *was_dirty)
    {
        auto &set = sets_[setOf(a)];
        auto it = find(set, a);
        if (it == set.end())
            return false;
        *was_dirty = it->dirty;
        set.erase(it);
        return true;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** The set hash of SetAssocCache. */
    std::uint32_t
    setOf(Addr a) const
    {
        std::uint64_t x = a / kCachelineBytes;
        x ^= x >> 17;
        x *= 0x9e3779b97f4a7c15ULL;
        x ^= x >> 29;
        return static_cast<std::uint32_t>(x & (sets_.size() - 1));
    }

  private:
    struct Line
    {
        Addr addr;
        bool dirty;
        LineValue value;
    };

    static std::vector<Line>::iterator
    find(std::vector<Line> &set, Addr a)
    {
        return std::find_if(set.begin(), set.end(),
                            [a](const Line &l) { return l.addr == a; });
    }

    std::size_t ways_;
    std::vector<std::vector<Line>> sets_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

struct Geometry
{
    const char *name;
    std::uint64_t sizeBytes;
    std::uint32_t ways;
};

void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << g.name << " (" << g.sizeBytes << " B, " << g.ways << " ways)";
}

class CacheVsReference : public ::testing::TestWithParam<Geometry>
{};

TEST_P(CacheVsReference, RandomOpsMatch)
{
    const Geometry g = GetParam();
    SetAssocCache c(g.sizeBytes, g.ways);
    ReferenceCache ref(c.numSets(), c.ways());

    // Lines that land in at most 3 sets, 2x the ways of each, so the
    // random mix hits, misses, evicts and refills within the same sets.
    const std::uint32_t hot_sets = std::min<std::uint32_t>(3, c.numSets());
    const std::size_t per_set = 2 * static_cast<std::size_t>(c.ways());
    std::vector<std::size_t> filled(hot_sets, 0);
    std::vector<Addr> pool;
    for (std::uint64_t i = 0; pool.size() < hot_sets * per_set; ++i) {
        const std::uint32_t s = ref.setOf(line(i));
        if (s < hot_sets && filled[s] < per_set) {
            filled[s]++;
            pool.push_back(line(i));
        }
    }

    Rng rng(0xcac4e5eedULL + g.ways);
    for (int step = 0; step < 40000; ++step) {
        const Addr a = pool[rng.below(pool.size())];
        const LineValue v = rng.next();
        const std::uint64_t op = rng.below(100);
        const std::string at = std::string(g.name) + " step " +
                               std::to_string(step) + " line " +
                               std::to_string(a / kCachelineBytes);
        if (op < 45) {
            const bool write = op < 15;
            LineValue got = 0;
            LineValue want = 0;
            ASSERT_EQ(c.access(a, write, v, &got),
                      ref.access(a, write, v, &want)) << at;
            ASSERT_EQ(got, want) << at;
        } else if (op < 80) {
            const bool dirty = op < 55;
            const CacheResult got = c.fill(a, dirty, v);
            const CacheResult want = ref.fill(a, dirty, v);
            ASSERT_EQ(got.hit, want.hit) << at;
            ASSERT_EQ(got.writeback, want.writeback) << at;
            ASSERT_EQ(got.victimAddr, want.victimAddr) << at;
            ASSERT_EQ(got.victimValue, want.victimValue) << at;
        } else if (op < 90) {
            ASSERT_EQ(c.probe(a), ref.probe(a)) << at;
        } else {
            bool got = false;
            bool want = false;
            ASSERT_EQ(c.invalidate(a, &got), ref.invalidate(a, &want)) << at;
            ASSERT_EQ(got, want) << at;
        }
    }
    EXPECT_EQ(c.hits(), ref.hits());
    EXPECT_EQ(c.misses(), ref.misses());
    EXPECT_GT(c.hits(), 0u);
    EXPECT_GT(c.misses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsReference,
    ::testing::Values(Geometry{"OneSet4Way", 4 * kCachelineBytes, 4},
                      Geometry{"BenchL1", 16 * 1024, 8},
                      Geometry{"BenchL2", 128 * 1024, 32},
                      Geometry{"BenchLlc", 2 * 1024 * 1024, 16},
                      Geometry{"NonPow2Ways12", 48 * 1024, 12},
                      Geometry{"WaysExceedLines", 2 * kCachelineBytes, 6}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace skybyte
