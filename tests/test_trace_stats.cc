/**
 * @file
 * Tests for the offline trace analyzer (src/trace/trace_stats.h): exact
 * accounting on a hand-built workload, CDF monotonicity, Table I write
 * ratios for every paper workload, Figure 5-style locality claims, and
 * equivalence between analyzing a generator and its STRC replay.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>

#include "trace/trace_log/trace_log.h"
#include "trace/trace_log/trace_log_workload.h"
#include "trace/trace_stats.h"

namespace skybyte {
namespace {

/** Deterministic scripted workload for exact-count assertions. */
class ScriptedWorkload : public Workload
{
  public:
    explicit ScriptedWorkload(std::vector<std::deque<TraceRecord>> script,
                              std::uint64_t footprint)
        : script_(std::move(script)), footprint_(footprint),
          emitted_(script_.size(), 0)
    {}

    std::string name() const override { return "scripted"; }
    std::uint64_t footprintBytes() const override { return footprint_; }
    int numThreads() const override
    {
        return static_cast<int>(script_.size());
    }
    std::uint32_t
    refill(int tid, TraceBatch &batch) override
    {
        auto &queue = script_[static_cast<std::size_t>(tid)];
        std::uint32_t n = 0;
        while (n < TraceBatch::kCapacity && !queue.empty()) {
            const TraceRecord &rec = queue.front();
            batch.records[n++] = rec;
            emitted_[static_cast<std::size_t>(tid)] +=
                rec.computeOps + 1;
            queue.pop_front();
        }
        batch.count = n;
        batch.cursor = 0;
        return n;
    }
    std::uint64_t
    instructionsEmitted(int tid) const override
    {
        return emitted_[static_cast<std::size_t>(tid)];
    }

  private:
    std::vector<std::deque<TraceRecord>> script_;
    std::uint64_t footprint_;
    std::vector<std::uint64_t> emitted_;
};

TraceRecord
rec(Addr vaddr, bool write, std::uint32_t compute = 2)
{
    TraceRecord r;
    r.vaddr = vaddr;
    r.isWrite = write;
    r.computeOps = compute;
    return r;
}

TEST(TraceStats, ExactCountsOnScriptedTrace)
{
    const Addr base = Workload::kDataBase;
    std::vector<std::deque<TraceRecord>> script(1);
    // Page 0: two lines read, one written. Page 1: one line written.
    script[0].push_back(rec(base + 0, false));
    script[0].push_back(rec(base + 64, false));
    script[0].push_back(rec(base + 64, true));
    script[0].push_back(rec(base + kPageBytes, true));
    // A private (non-device) access must not count device pages.
    script[0].push_back(rec(Workload::kPrivateBase, false));
    ScriptedWorkload wl(std::move(script), 2 * kPageBytes);

    const TraceSummary s = summarizeWorkload(wl);
    EXPECT_EQ(s.records, 5u);
    EXPECT_EQ(s.instructions, 5u * 3u);
    EXPECT_EQ(s.memReads, 3u);
    EXPECT_EQ(s.memWrites, 2u);
    EXPECT_EQ(s.deviceAccesses, 4u);
    EXPECT_EQ(s.uniquePages, 2u);
    EXPECT_DOUBLE_EQ(s.writeRatio(), 2.0 / 5.0);
    // Page 0 touched 2/64 lines, page 1 touched 1/64.
    EXPECT_DOUBLE_EQ(s.meanLinesTouched, (2.0 + 1.0) / (2 * 64.0));
    EXPECT_DOUBLE_EQ(s.meanLinesWritten, (1.0 + 1.0) / (2 * 64.0));
    // Both pages touch <= 10% of lines: the first CDF bucket is 1.
    EXPECT_DOUBLE_EQ(s.touchedCdf[0], 1.0);
    EXPECT_DOUBLE_EQ(s.touchedCdf[9], 1.0);
}

TEST(TraceStats, CdfIsMonotoneAndEndsAtOne)
{
    WorkloadParams params;
    params.instrPerThread = 30'000;
    params.numThreads = 4;
    for (const std::string &name : paperWorkloadNames()) {
        auto wl = makeWorkload(name, params);
        const TraceSummary s = summarizeWorkload(*wl);
        ASSERT_GT(s.uniquePages, 0u) << name;
        for (std::size_t i = 1; i < s.touchedCdf.size(); ++i) {
            EXPECT_GE(s.touchedCdf[i], s.touchedCdf[i - 1]) << name;
            EXPECT_GE(s.writtenCdf[i], s.writtenCdf[i - 1]) << name;
        }
        EXPECT_DOUBLE_EQ(s.touchedCdf.back(), 1.0) << name;
        EXPECT_DOUBLE_EQ(s.writtenCdf.back(), 1.0) << name;
    }
}

TEST(TraceStats, WriteRatiosTrackTableI)
{
    WorkloadParams params;
    params.instrPerThread = 60'000;
    params.numThreads = 4;
    for (const std::string &name : paperWorkloadNames()) {
        auto wl = makeWorkload(name, params);
        const TraceSummary s = summarizeWorkload(*wl);
        const double paper = workloadInfo(name).paperWriteRatio;
        EXPECT_NEAR(s.writeRatio(), paper, 0.08)
            << name << " write ratio drifted from Table I";
    }
}

TEST(TraceStats, WrittenNeverExceedsTouched)
{
    WorkloadParams params;
    params.instrPerThread = 30'000;
    for (const std::string &name : paperWorkloadNames()) {
        auto wl = makeWorkload(name, params);
        const TraceSummary s = summarizeWorkload(*wl);
        EXPECT_LE(s.meanLinesWritten, s.meanLinesTouched) << name;
        for (std::size_t i = 0; i < s.touchedCdf.size(); ++i) {
            // More pages sit in the low-coverage buckets for writes.
            EXPECT_GE(s.writtenCdf[i], s.touchedCdf[i]) << name;
        }
    }
}

TEST(TraceStats, HotShareIsAtLeastProportional)
{
    WorkloadParams params;
    params.instrPerThread = 30'000;
    for (const std::string &name : paperWorkloadNames()) {
        auto wl = makeWorkload(name, params);
        const TraceSummary s = summarizeWorkload(*wl);
        // The hottest 10% of pages always carry >= 10% of accesses;
        // skewed workloads carry much more.
        EXPECT_GE(s.hotTop10PctShare, 0.099) << name;
        EXPECT_LE(s.hotTop10PctShare, 1.0) << name;
    }
}

TEST(TraceStats, MaxRecordsBoundsTheScan)
{
    WorkloadParams params;
    params.instrPerThread = 100'000;
    auto wl = makeWorkload("ycsb", params);
    const TraceSummary s = summarizeWorkload(*wl, 1000);
    EXPECT_EQ(s.records, 1000u);
}

TEST(TraceStats, TraceLogReplayMatchesGenerator)
{
    WorkloadParams params;
    params.instrPerThread = 20'000;
    params.numThreads = 2;
    auto original = makeWorkload("radix", params);
    const std::string path =
        ::testing::TempDir() + "/trace_stats_roundtrip.strc";
    writeTraceLog(path, *original);

    auto fresh = makeWorkload("radix", params);
    const TraceSummary from_gen = summarizeWorkload(*fresh);
    TraceLogWorkload replay(path);
    const TraceSummary from_file = summarizeWorkload(replay);
    std::remove(path.c_str());

    EXPECT_EQ(from_gen.records, from_file.records);
    EXPECT_EQ(from_gen.memWrites, from_file.memWrites);
    EXPECT_EQ(from_gen.uniquePages, from_file.uniquePages);
    EXPECT_DOUBLE_EQ(from_gen.meanLinesTouched,
                     from_file.meanLinesTouched);
}

TEST(TraceStats, FormatSummaryMentionsKeyFigures)
{
    WorkloadParams params;
    params.instrPerThread = 10'000;
    auto wl = makeWorkload("bc", params);
    const TraceSummary s = summarizeWorkload(*wl);
    const std::string text = formatSummary(s, "bc");
    EXPECT_NE(text.find("trace bc"), std::string::npos);
    EXPECT_NE(text.find("records"), std::string::npos);
    EXPECT_NE(text.find("touched-lines CDF"), std::string::npos);
    EXPECT_NE(text.find("written-lines CDF"), std::string::npos);
}

TEST(TraceStats, EmptyWorkloadYieldsZeroes)
{
    std::vector<std::deque<TraceRecord>> script(2);
    ScriptedWorkload wl(std::move(script), kPageBytes);
    const TraceSummary s = summarizeWorkload(wl);
    EXPECT_EQ(s.records, 0u);
    EXPECT_EQ(s.uniquePages, 0u);
    EXPECT_DOUBLE_EQ(s.writeRatio(), 0.0);
    EXPECT_DOUBLE_EQ(s.hotTop10PctShare, 0.0);
}

} // namespace
} // namespace skybyte
