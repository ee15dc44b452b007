/**
 * @file
 * Unit tests for the RNG / zipf sampler and the statistics primitives
 * (latency and ratio histograms, geometric mean).
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "common/rng.h"
#include "common/stats.h"

namespace skybyte {
namespace {

TEST(Rng, DeterministicPerSeed)
{
    Rng a(123), b(123), c(124);
    bool diverged = false;
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t x = a.next();
        EXPECT_EQ(x, b.next());
        if (x != c.next())
            diverged = true;
    }
    EXPECT_TRUE(diverged);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformIsRoughlyUniform)
{
    Rng rng(9);
    std::array<int, 10> buckets{};
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        buckets[static_cast<std::size_t>(rng.uniform() * 10)]++;
    for (int b : buckets) {
        EXPECT_GT(b, n / 10 * 0.9);
        EXPECT_LT(b, n / 10 * 1.1);
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(11);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Zipf, SamplesAreInRangeAndSkewed)
{
    Rng rng(3);
    ZipfSampler zipf(10000, 0.99);
    std::uint64_t rank0 = 0, tail = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t s = zipf.sample(rng);
        ASSERT_LT(s, 10000u);
        if (s == 0)
            rank0++;
        if (s >= 5000)
            tail++;
    }
    // Rank 0 should get ~1/zeta share (>>1/10000); the top half of the
    // rank space should get only a small share.
    EXPECT_GT(rank0, static_cast<std::uint64_t>(n) / 100);
    EXPECT_LT(tail, static_cast<std::uint64_t>(n) / 4);
}

TEST(Zipf, LowerThetaIsLessSkewed)
{
    Rng r1(5), r2(5);
    ZipfSampler strong(100000, 0.99), weak(100000, 0.5);
    std::uint64_t strong_head = 0, weak_head = 0;
    for (int i = 0; i < 50000; ++i) {
        if (strong.sample(r1) < 100)
            strong_head++;
        if (weak.sample(r2) < 100)
            weak_head++;
    }
    EXPECT_GT(strong_head, weak_head);
}

TEST(Zipf, DrawsArePinned)
{
    // The first 64 ranks from Rng(0x21bf). The zipf-shaped workloads
    // draw their addresses here, so a sampler change that moves a draw
    // moves the e2e digests and sweep references too; this names the
    // cause. Ranks 0 and 1 both occur, so both early-out bounds count.
    struct Case
    {
        double theta;
        std::uint64_t n;
        std::array<std::uint64_t, 64> ranks;
    };
    const Case cases[] = {
        {0.5, 1000,
         {754, 241, 258, 818, 818, 449, 33, 25,
          74, 691, 66, 500, 205, 54, 373, 931,
          26, 465, 627, 37, 404, 743, 122, 872,
          177, 80, 382, 72, 917, 335, 864, 219,
          8, 320, 156, 327, 723, 126, 622, 0,
          332, 1, 281, 200, 804, 510, 374, 6,
          233, 40, 793, 168, 36, 17, 260, 106,
          686, 522, 474, 50, 551, 99, 588, 689}},
        {0.5, 1u << 20,
         {786964, 244562, 261571, 854812, 854601, 463634, 29566, 22147,
          71242, 719967, 63114, 516935, 206103, 51233, 383224, 975700,
          22922, 480749, 651707, 33924, 416004, 775473, 120587, 912832,
          177206, 77489, 392084, 69126, 960989, 343456, 904349, 220754,
          5830, 327015, 155416, 334998, 754233, 124223, 646969, 159,
          339432, 804, 285788, 201457, 840447, 527550, 383640, 4437,
          235736, 36926, 828008, 168502, 32623, 14267, 263936, 103618,
          714706, 540445, 489882, 47068, 571120, 96918, 610810, 717511}},
        {0.99, 1000,
         {365, 19, 21, 482, 481, 78, 1, 1,
          3, 274, 2, 104, 14, 2, 49, 767,
          1, 86, 202, 1, 60, 348, 6, 605,
          11, 3, 52, 3, 726, 38, 585, 16,
          0, 34, 8, 36, 318, 6, 198, 0,
          37, 0, 26, 13, 455, 110, 49, 0,
          18, 1, 432, 10, 1, 0, 22, 5,
          268, 118, 90, 2, 138, 4, 167, 272}},
        {0.99, 1u << 20,
         {165643, 684, 872, 275360, 274936, 9623, 5, 4,
          24, 97832, 19, 16375, 381, 13, 4033, 645592,
          4, 11454, 55579, 7, 5812, 151616, 80, 417791,
          236, 29, 4459, 23, 583934, 2528, 393461, 479,
          1, 2066, 160, 2280, 128490, 86, 53376, 0,
          2407, 0, 1214, 354, 247750, 18137, 4052, 0,
          601, 8, 225902, 202, 6, 2, 901, 55,
          93762, 20504, 12552, 11, 27278, 47, 38982, 95913}},
    };
    for (const Case &c : cases) {
        const ZipfSampler zipf(c.n, c.theta);
        Rng rng(0x21bfULL);
        for (std::size_t i = 0; i < c.ranks.size(); ++i) {
            ASSERT_EQ(zipf.sample(rng), c.ranks[i])
                << "theta " << c.theta << " n " << c.n << " draw " << i;
        }
    }
}

TEST(LatencyHistogram, MeanAndCount)
{
    LatencyHistogram h;
    for (Tick t = 1; t <= 100; ++t)
        h.record(t * 100);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_NEAR(h.meanTicks(), 5050.0, 1.0);
}

TEST(LatencyHistogram, PercentilesOrderedAndBracketed)
{
    LatencyHistogram h;
    for (int i = 0; i < 900; ++i)
        h.record(100); // fast bulk
    for (int i = 0; i < 100; ++i)
        h.record(100000); // slow tail
    const Tick p50 = h.percentileTicks(0.5);
    const Tick p95 = h.percentileTicks(0.95);
    EXPECT_LE(p50, p95);
    EXPECT_LT(p50, 200u);
    EXPECT_GT(p95, 50000u);
}

TEST(LatencyHistogram, CdfPointsMonotone)
{
    LatencyHistogram h;
    Rng rng(1);
    for (int i = 0; i < 10000; ++i)
        h.record(rng.below(1'000'000) + 1);
    double prev_frac = 0.0, prev_ns = 0.0;
    for (const auto &[ns, frac] : h.cdfPoints()) {
        EXPECT_GE(frac, prev_frac);
        EXPECT_GE(ns, prev_ns);
        prev_frac = frac;
        prev_ns = ns;
    }
    EXPECT_NEAR(prev_frac, 1.0, 1e-9);
}

TEST(LatencyHistogram, MergeAddsCounts)
{
    LatencyHistogram a, b;
    a.record(10);
    b.record(1000);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
}

TEST(RatioHistogram, CdfAtThresholds)
{
    RatioHistogram h;
    for (int i = 0; i < 50; ++i)
        h.record(0.1);
    for (int i = 0; i < 50; ++i)
        h.record(0.9);
    EXPECT_NEAR(h.cdfAt(0.5), 0.5, 0.02);
    EXPECT_NEAR(h.cdfAt(1.0), 1.0, 1e-9);
    EXPECT_NEAR(h.mean(), 0.5, 0.01);
}

TEST(RatioHistogram, ClampsOutOfRange)
{
    RatioHistogram h;
    h.record(-1.0);
    h.record(2.0);
    EXPECT_EQ(h.count(), 2u);
    // -1 clamps into the first bucket and 2.0 into the last; the
    // exclusive CDF sees neither strictly below 0 and both below 1.
    EXPECT_NEAR(h.cdfAt(0.0), 0.0, 1e-9);
    EXPECT_NEAR(h.cdfAt(0.5), 0.5, 1e-9);
    EXPECT_NEAR(h.cdfAt(1.0), 1.0, 1e-9);
}

TEST(GeoMean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geoMean({}), 0.0);
    EXPECT_NEAR(geoMean({2.0, 8.0}), 4.0, 1e-9);
    EXPECT_NEAR(geoMean({1.0, 1.0, 1.0}), 1.0, 1e-9);
}

} // namespace
} // namespace skybyte
