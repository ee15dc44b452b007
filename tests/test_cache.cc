/**
 * @file
 * Unit tests for the set-associative cache and MSHR file: hit/miss, true
 * LRU eviction, dirty writebacks with functional values, invalidation,
 * MSHR capacity/coalescing, randomized comparisons against a trivially
 * correct reference cache (across geometries, past a set's clock wrap
 * and over fingerprint collisions), and the SSE2 lane helpers against
 * their scalar versions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
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

/** The set hash of SetAssocCache: sets from its low bits, way
 *  fingerprints from its top 15. */
std::uint64_t
setHash(Addr a)
{
    std::uint64_t x = a / kCachelineBytes;
    x ^= x >> 17;
    x *= 0x9e3779b97f4a7c15ULL;
    x ^= x >> 29;
    return x;
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

    /** The set of SetAssocCache: the low bits of its hash. */
    std::uint32_t
    setOf(Addr a) const
    {
        return static_cast<std::uint32_t>(setHash(a) & (sets_.size() - 1));
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

/**
 * Run @p steps random accesses, fills, probes and invalidates over
 * @p pool on @p c and @p ref, asserting every answer agrees.
 * @return the touches (hits and fills), each of which stamps a way
 */
std::uint64_t
runAgainstReference(SetAssocCache &c, ReferenceCache &ref,
                    const std::vector<Addr> &pool, int steps,
                    std::uint64_t seed, const std::string &name)
{
    Rng rng(seed);
    std::uint64_t touches = 0;
    const bool failed_before = ::testing::Test::HasFailure();
    for (int step = 0; step < steps; ++step) {
        const Addr a = pool[rng.below(pool.size())];
        const LineValue v = rng.next();
        const std::uint64_t op = rng.below(100);
        const std::string at = name + " step " + std::to_string(step) +
                               " line " + std::to_string(a / kCachelineBytes);
        if (op < 45) {
            const bool write = op < 15;
            LineValue got = 0;
            LineValue want = 0;
            const bool hit = c.access(a, write, v, &got);
            EXPECT_EQ(hit, ref.access(a, write, v, &want)) << at;
            EXPECT_EQ(got, want) << at;
            touches += hit ? 1 : 0;
        } else if (op < 80) {
            const bool dirty = op < 55;
            const CacheResult got = c.fill(a, dirty, v);
            const CacheResult want = ref.fill(a, dirty, v);
            EXPECT_EQ(got.hit, want.hit) << at;
            EXPECT_EQ(got.writeback, want.writeback) << at;
            EXPECT_EQ(got.victimAddr, want.victimAddr) << at;
            EXPECT_EQ(got.victimValue, want.victimValue) << at;
            touches++;
        } else if (op < 90) {
            EXPECT_EQ(c.probe(a), ref.probe(a)) << at;
        } else {
            bool got = false;
            bool want = false;
            EXPECT_EQ(c.invalidate(a, &got), ref.invalidate(a, &want)) << at;
            EXPECT_EQ(got, want) << at;
        }
        if (!failed_before && ::testing::Test::HasFailure())
            break; // the first disagreement is the one worth reading
    }
    EXPECT_EQ(c.hits(), ref.hits()) << name;
    EXPECT_EQ(c.misses(), ref.misses()) << name;
    EXPECT_GT(c.hits(), 0u) << name;
    EXPECT_GT(c.misses(), 0u) << name;
    return touches;
}

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
    runAgainstReference(c, ref, pool, 40000, 0xcac4e5eedULL + g.ways,
                        g.name);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsReference,
    ::testing::Values(Geometry{"OneSet4Way", 4 * kCachelineBytes, 4},
                      Geometry{"OneWay", 16 * kCachelineBytes, 1},
                      Geometry{"ThreeWay", 24 * kCachelineBytes, 3},
                      Geometry{"BenchL1", 16 * 1024, 8},
                      Geometry{"BenchL2", 128 * 1024, 32},
                      Geometry{"BenchLlc", 2 * 1024 * 1024, 16},
                      Geometry{"NonPow2Ways12", 48 * 1024, 12},
                      // 5 lane groups: the victim scan's second step.
                      Geometry{"FiveGroups40Way", 40 * 1024, 40},
                      Geometry{"WaysExceedLines", 2 * kCachelineBytes, 6}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return std::string(info.param.name);
    });

TEST(SetAssocCache, PerSetClockWrapKeepsLruOrder)
{
    // One set of 4 ways (one lane group, half of it pad) or 12 (two
    // groups, four pad lanes): its clock hands out kMaxStamp stamps
    // before the set is renumbered, so this run wraps it several times
    // while the reference checks every answer.
    for (std::uint32_t ways : {4u, 12u}) {
        SetAssocCache c(ways * kCachelineBytes, ways);
        ASSERT_EQ(c.numSets(), 1u);
        ReferenceCache ref(1, ways);
        std::vector<Addr> pool;
        for (std::uint64_t i = 0; i < 2 * ways; ++i)
            pool.push_back(line(i));
        const std::uint64_t touches = runAgainstReference(
            c, ref, pool, 200000, 0x3a9b1e5ULL + ways,
            "wrap" + std::to_string(ways));
        EXPECT_GT(touches, 3u * SetAssocCache::kMaxStamp) << ways;
    }
}

/** The 15 bits of SetAssocCache's set hash that form the fingerprint. */
std::uint32_t
fingerprintBits(Addr a)
{
    return static_cast<std::uint32_t>(setHash(a) >> 49);
}

/** Two distinct lines whose fingerprints are equal. */
std::pair<Addr, Addr>
collidingLines()
{
    std::vector<std::uint64_t> seen(std::uint64_t{1} << 15, ~0ULL);
    for (std::uint64_t i = 0;; ++i) {
        std::uint64_t &first = seen[fingerprintBits(line(i))];
        if (first != ~0ULL)
            return {line(first), line(i)};
        first = i;
    }
}

TEST(SetAssocCache, FingerprintCollisionResolvedByTag)
{
    const auto [a, b] = collidingLines();
    ASSERT_NE(a, b);
    ASSERT_EQ(fingerprintBits(a), fingerprintBits(b));

    // One set of two ways: both lines share it.
    SetAssocCache c(2 * kCachelineBytes, 2);
    ASSERT_EQ(c.numSets(), 1u);
    c.fill(a, true, 11);
    // Only a is resident: b matches a's fingerprint but not its tag.
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_FALSE(c.access(b, false));
    EXPECT_FALSE(c.invalidate(b));
    EXPECT_FALSE(c.fill(b, false, 22).hit);
    // Both resident: each answers with its own value and dirty bit.
    LineValue v = 0;
    EXPECT_TRUE(c.access(a, false, 0, &v));
    EXPECT_EQ(v, 11u);
    EXPECT_TRUE(c.access(b, false, 0, &v));
    EXPECT_EQ(v, 22u);
    // a is now LRU and dirty; a third line evicts it, not b.
    CacheResult r = c.fill(line(1'000'003), false, 33);
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victimAddr, a);
    EXPECT_EQ(r.victimValue, 11u);
    EXPECT_FALSE(c.probe(a));
    EXPECT_TRUE(c.probe(b));
    // b is clean: evicting it writes nothing back.
    r = c.fill(a, true, 44);
    EXPECT_FALSE(r.writeback);
    EXPECT_FALSE(c.probe(b));
    bool was_dirty = false;
    EXPECT_TRUE(c.invalidate(a, &was_dirty));
    EXPECT_TRUE(was_dirty);
    EXPECT_FALSE(c.probe(a));

    // And under a random mix over colliding and other lines.
    SetAssocCache c4(4 * kCachelineBytes, 4);
    ReferenceCache ref(1, 4);
    const std::vector<Addr> pool = {a, b, line(5), line(6), line(7)};
    runAgainstReference(c4, ref, pool, 20000, 0xc0111de5ULL, "collision");
}

TEST(SetAssocCache, RejectsMoreThanMaxWays)
{
    EXPECT_THROW(SetAssocCache(std::uint64_t{1} << 20,
                               SetAssocCache::kMaxWays + 1),
                 std::invalid_argument);
    SetAssocCache c(SetAssocCache::kMaxWays * kCachelineBytes,
                    SetAssocCache::kMaxWays);
    EXPECT_EQ(c.numSets(), 1u);
}

TEST(CacheLanes, Sse2HelpersMatchScalar)
{
#if defined(__SSE2__)
    using namespace cache_lanes;
    Rng rng(0x55e2ULL);
    constexpr std::uint32_t kMaxGroups = SetAssocCache::kMaxWays / kLanes;
    // firstMinSse2 scans 4 groups per step: one step up to 4 groups,
    // two from 5 to 8, three from 9, and 32 at kMaxWays.
    const std::uint32_t group_counts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9,
                                          kMaxGroups};
    std::vector<std::uint16_t> row(kMaxGroups * kLanes);
    // A row of @p groups groups whose first @p ways lanes are ways and
    // the rest pad lanes.
    auto draw_row = [&](std::uint32_t groups, std::uint32_t ways) {
        // Draw from a small alphabet so ties and matches are common;
        // 0 stands for empty ways, 0x7FFF for pad-lane stamps.
        const std::uint16_t alphabet[] = {0, 1, 2, 3, 0x7FFE, 0x7FFF};
        for (std::uint32_t i = 0; i < groups * kLanes; ++i) {
            row[i] = i >= ways ? 0x7FFF
                     : rng.chance(0.5)
                         ? alphabet[rng.below(std::size(alphabet))]
                         : static_cast<std::uint16_t>(rng.below(0x8000));
        }
    };
    for (int iter = 0; iter < 20000; ++iter) {
        const std::uint32_t groups =
            group_counts[rng.below(std::size(group_counts))];
        const std::uint32_t ways = 1 + rng.below(groups * kLanes);
        draw_row(groups, ways);
        const std::uint32_t first = firstMinScalar(row.data(), groups);
        ASSERT_EQ(firstMinSse2(row.data(), groups), first) << iter;
        ASSERT_LT(first, ways) << iter;

        // Way words: a fingerprint with a clear low bit, the dirty bit
        // random in each lane.
        const auto key = static_cast<std::uint16_t>(
            (2 + 2 * rng.below(4)) & 0xFFFE);
        std::uint16_t group[kLanes];
        for (std::uint16_t &w : group) {
            w = rng.chance(0.4)
                    ? static_cast<std::uint16_t>(key | rng.below(2))
                    : static_cast<std::uint16_t>(rng.below(0x10000));
        }
        ASSERT_EQ(matchSse2(group, key), matchScalar(group, key)) << iter;
    }
    // The minimum forced into each group in turn, half the time tied
    // with a lane in another group, so it lands in every step of every
    // width and the first of two equal lanes must win across groups.
    for (const std::uint32_t groups : group_counts) {
        for (int iter = 0; iter < 20; ++iter) {
            // The last group holds at least one way.
            const std::uint32_t ways = groups * kLanes - rng.below(kLanes);
            draw_row(groups, ways);
            for (std::uint32_t i = 0; i < ways; ++i)
                row[i] = std::max<std::uint16_t>(row[i], 1);
            for (std::uint32_t g = 0; g < groups; ++g) {
                std::vector<std::uint16_t> forced(
                    row.begin(), row.begin() + groups * kLanes);
                const std::uint32_t at =
                    g * kLanes
                    + rng.below(std::min(kLanes, ways - g * kLanes));
                forced[at] = 0;
                std::uint32_t want = at;
                if (rng.chance(0.5)) {
                    const std::uint32_t tie = rng.below(ways);
                    forced[tie] = 0;
                    want = std::min(at, tie);
                }
                ASSERT_EQ(firstMinScalar(forced.data(), groups), want)
                    << groups << " groups, minimum in group " << g;
                ASSERT_EQ(firstMinSse2(forced.data(), groups), want)
                    << groups << " groups, minimum in group " << g;
            }
        }
    }

    // A pad lane (way word 0) matches no fingerprint.
    const std::uint16_t empty[kLanes] = {};
    EXPECT_EQ(matchSse2(empty, 2), 0u);
    EXPECT_EQ(matchScalar(empty, 2), 0u);
#else
    GTEST_SKIP() << "no SSE2 on this target";
#endif
}

} // namespace
} // namespace skybyte
