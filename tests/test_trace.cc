/**
 * @file
 * Tests for the workload generators: determinism, instruction budgets,
 * address ranges, write ratios matching Table I, and locality skew.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "trace/workload.h"

namespace skybyte {
namespace {

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.numThreads = 2;
    p.instrPerThread = 50'000;
    p.footprintBytes = 8ULL * 1024 * 1024;
    p.seed = 7;
    return p;
}

class AllWorkloads : public ::testing::TestWithParam<std::string>
{};

TEST_P(AllWorkloads, RespectsInstructionBudget)
{
    auto wl = makeWorkload(GetParam(), smallParams());
    TraceCursor cursor(*wl, 0);
    TraceRecord rec;
    while (cursor.next(rec)) {
    }
    const std::uint64_t emitted = wl->instructionsEmitted(0);
    EXPECT_GE(emitted, 50'000u - 64);
    EXPECT_LE(emitted, 50'000u + 64);
    EXPECT_FALSE(cursor.next(rec)); // stays exhausted
    TraceBatch batch;
    EXPECT_EQ(wl->refill(0, batch), 0u); // refill too
}

TEST_P(AllWorkloads, AddressesWithinRegions)
{
    auto wl = makeWorkload(GetParam(), smallParams());
    const Addr data_end =
        Workload::kDataBase + wl->footprintBytes();
    TraceCursor cursor(*wl, 0);
    TraceRecord rec;
    for (int i = 0; i < 20000 && cursor.next(rec); ++i) {
        const bool in_data =
            rec.vaddr >= Workload::kDataBase && rec.vaddr < data_end;
        const bool in_private = rec.vaddr >= Workload::kPrivateBase;
        EXPECT_TRUE(in_data || in_private)
            << std::hex << rec.vaddr;
    }
}

TEST_P(AllWorkloads, DeterministicPerSeedAndThread)
{
    auto a = makeWorkload(GetParam(), smallParams());
    auto b = makeWorkload(GetParam(), smallParams());
    TraceCursor ca(*a, 1), cb(*b, 1);
    TraceRecord ra, rb;
    for (int i = 0; i < 5000; ++i) {
        const bool ok_a = ca.next(ra);
        const bool ok_b = cb.next(rb);
        ASSERT_EQ(ok_a, ok_b);
        if (!ok_a)
            break;
        EXPECT_EQ(ra.vaddr, rb.vaddr);
        EXPECT_EQ(ra.isWrite, rb.isWrite);
        EXPECT_EQ(ra.computeOps, rb.computeOps);
    }
}

TEST_P(AllWorkloads, StreamIndependentOfRefillGranularity)
{
    // The per-thread record sequence must not depend on how many
    // records each refill produces: a record-at-a-time wrapper (the
    // seed contract) must replay the batched stream exactly.
    auto batched = makeWorkload(GetParam(), smallParams());
    SingleRecordWorkload stepped(
        makeWorkload(GetParam(), smallParams()));
    TraceCursor cb(*batched, 1), cs(stepped, 1);
    TraceRecord rb, rs;
    for (int i = 0; i < 5000; ++i) {
        const bool ok_b = cb.next(rb);
        const bool ok_s = cs.next(rs);
        ASSERT_EQ(ok_b, ok_s);
        if (!ok_b)
            break;
        ASSERT_EQ(rb.vaddr, rs.vaddr);
        ASSERT_EQ(rb.isWrite, rs.isWrite);
        ASSERT_EQ(rb.computeOps, rs.computeOps);
    }
}

TEST_P(AllWorkloads, ThreadsDiffer)
{
    auto wl = makeWorkload(GetParam(), smallParams());
    TraceCursor c0(*wl, 0), c1(*wl, 1);
    TraceRecord r0, r1;
    int same = 0, total = 0;
    for (int i = 0; i < 2000; ++i) {
        if (!c0.next(r0) || !c1.next(r1))
            break;
        total++;
        same += (r0.vaddr == r1.vaddr) ? 1 : 0;
    }
    ASSERT_GT(total, 0);
    EXPECT_LT(same, total); // not identical streams
}

INSTANTIATE_TEST_SUITE_P(
    Names, AllWorkloads,
    ::testing::Values("bc", "bfs-dense", "dlrm", "radix", "srad", "tpcc",
                      "ycsb", "uniform", "zipf", "scan", "ptrchase",
                      "phased", "zipf:theta=0.6,write_ratio=0.5",
                      "scan:stride=4096,write_ratio=0.2",
                      "phased:phase_instr=5000,theta=0.95"));

/** Write ratios should track Table I within a few points. */
class WriteRatio
    : public ::testing::TestWithParam<std::pair<const char *, double>>
{};

TEST_P(WriteRatio, MatchesTableOne)
{
    const auto [name, expected] = GetParam();
    WorkloadParams p = smallParams();
    p.instrPerThread = 400'000;
    auto wl = makeWorkload(name, p);
    TraceCursor cursor(*wl, 0);
    TraceRecord rec;
    std::uint64_t writes = 0, mem_ops = 0;
    while (cursor.next(rec)) {
        mem_ops++;
        writes += rec.isWrite ? 1 : 0;
    }
    const double ratio = static_cast<double>(writes)
                         / static_cast<double>(mem_ops);
    EXPECT_NEAR(ratio, expected, 0.06) << name;
}

INSTANTIATE_TEST_SUITE_P(
    TableOne, WriteRatio,
    ::testing::Values(std::pair<const char *, double>{"bc", 0.11},
                      std::pair<const char *, double>{"bfs-dense", 0.25},
                      std::pair<const char *, double>{"dlrm", 0.32},
                      std::pair<const char *, double>{"radix", 0.29},
                      std::pair<const char *, double>{"srad", 0.24},
                      std::pair<const char *, double>{"tpcc", 0.36},
                      std::pair<const char *, double>{"ycsb", 0.05}));

TEST(WorkloadDefaults, FootprintsAreSixtyFourthOfPaper)
{
    WorkloadParams p;
    p.footprintBytes = 0; // workload default
    for (const auto &name : paperWorkloadNames()) {
        auto wl = makeWorkload(name, p);
        const double expect_mb =
            workloadInfo(name).paperFootprintGb * 1024.0 / 64.0;
        const double got_mb =
            static_cast<double>(wl->footprintBytes()) / (1024.0 * 1024.0);
        EXPECT_NEAR(got_mb, expect_mb, expect_mb * 0.02) << name;
    }
}

TEST(WorkloadLocality, YcsbIsZipfSkewed)
{
    WorkloadParams p = smallParams();
    p.instrPerThread = 300'000;
    auto wl = makeWorkload("ycsb", p);
    TraceCursor cursor(*wl, 0);
    std::unordered_map<std::uint64_t, std::uint64_t> page_counts;
    TraceRecord rec;
    std::uint64_t total = 0;
    while (cursor.next(rec)) {
        if (rec.vaddr < Workload::kPrivateBase) {
            page_counts[pageNumber(rec.vaddr)]++;
            total++;
        }
    }
    // Top 1% of touched pages should absorb a disproportionate share.
    std::vector<std::uint64_t> counts;
    for (const auto &[pg, c] : page_counts)
        counts.push_back(c);
    std::sort(counts.rbegin(), counts.rend());
    const std::size_t top = std::max<std::size_t>(counts.size() / 100, 1);
    std::uint64_t top_sum = 0;
    for (std::size_t i = 0; i < top; ++i)
        top_sum += counts[i];
    EXPECT_GT(static_cast<double>(top_sum) / static_cast<double>(total),
              0.10);
}

TEST(WorkloadLocality, SradWritesAreStrided)
{
    // srad's column-major sweep should touch many distinct pages in a
    // short write window (the "sparse writes" SkyByte-W exploits).
    WorkloadParams p = smallParams();
    auto wl = makeWorkload("srad", p);
    TraceCursor cursor(*wl, 0);
    std::unordered_set<std::uint64_t> pages;
    TraceRecord rec;
    int writes = 0;
    while (writes < 500 && cursor.next(rec)) {
        if (rec.isWrite && rec.vaddr < Workload::kPrivateBase) {
            pages.insert(pageNumber(rec.vaddr));
            writes++;
        }
    }
    EXPECT_GT(pages.size(), 100u);
}

TEST(WorkloadErrors, UnknownNameThrows)
{
    EXPECT_THROW(makeWorkload("nope", smallParams()),
                 std::invalid_argument);
    EXPECT_THROW(workloadInfo("nope"), std::invalid_argument);
}

} // namespace
} // namespace skybyte
