/**
 * @file
 * Tests for the mergeable sweep-report format: parse round-trips keep
 * point entries byte-verbatim, merging shard reports reconstructs the
 * unsharded report bit-identically (the property CI relies on to fan
 * sweeps across jobs), and malformed/incomplete merges are rejected.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/report.h"
#include "sim/sweep.h"

namespace skybyte {
namespace {

/** Diff options with tolerance @p pct percent, every key gated. */
BenchDiffOptions
withTol(double pct)
{
    BenchDiffOptions opt;
    opt.tolPct = pct;
    return opt;
}

/** Serialize one shard run of @p spec exactly like skybyte_sweep. */
SweepReport
reportFor(const SweepSpec &spec, const ExperimentOptions &opt,
          const ShardSpec &shard)
{
    const SweepExecution exec = runSweepShard(spec, opt, shard, 2);
    SweepReport report;
    report.sweep = spec.name;
    report.totalPoints = exec.totalPoints;
    report.shardIndex = shard.index;
    report.shardCount = shard.count;
    for (std::size_t i = 0; i < exec.points.size(); ++i) {
        const LabeledPoint &lp = exec.points[i];
        report.entries.push_back(
            {lp.index,
             sweepEntryJson(lp.index, lp.id(), exec.results[i])});
    }
    return report;
}

TEST(SweepReport, ParseRoundTripsVerbatim)
{
    SweepReport report;
    report.sweep = "smoke";
    report.totalPoints = 2;
    report.shardIndex = 0;
    report.shardCount = 1;
    SimResult res;
    res.variant = "Base-CSSD";
    res.workload = "ycsb";
    res.execTime = 12345;
    report.entries.push_back({0, sweepEntryJson(0, "ycsb/a", res)});
    res.workload = "srad";
    res.execTime = 54321;
    report.entries.push_back({1, sweepEntryJson(1, "srad/a", res)});

    const std::string text = toJson(report);
    const SweepReport parsed = parseSweepReport(text);
    EXPECT_EQ(parsed.sweep, report.sweep);
    EXPECT_EQ(parsed.totalPoints, report.totalPoints);
    EXPECT_EQ(parsed.shardIndex, report.shardIndex);
    EXPECT_EQ(parsed.shardCount, report.shardCount);
    ASSERT_EQ(parsed.entries.size(), report.entries.size());
    for (std::size_t i = 0; i < parsed.entries.size(); ++i) {
        EXPECT_EQ(parsed.entries[i].index, report.entries[i].index);
        EXPECT_EQ(parsed.entries[i].text, report.entries[i].text);
    }
    // Serializing the parse result reproduces the exact bytes.
    EXPECT_EQ(toJson(parsed), text);
}

TEST(SweepReport, QuotesAndBackslashesInLabelsAreEscaped)
{
    // A replay spec's path is free text: a '"' or '\' in it must not
    // end the JSON string early.
    const std::string label = "tracelog:path=q\"x\\y.strc";
    const std::string id = label + "/Base-CSSD";
    SimResult res;
    res.variant = "Base-CSSD";
    res.workload = label;
    SweepReport report;
    report.sweep = "tracereplay";
    report.totalPoints = 2;
    report.entries.push_back({0, sweepEntryJson(0, id, res)});
    SweepPointFailure failure;
    failure.index = 1;
    failure.id = id;
    failure.status = "failed";
    failure.attempts = 1;
    failure.detail = "exit 7";
    report.failures.push_back(failure);

    const std::string text = toJson(report);
    EXPECT_NE(text.find(R"("workload": "tracelog:path=q\"x\\y.strc")"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find(R"("id": "tracelog:path=q\"x\\y.strc/Base-CSSD")"),
              std::string::npos)
        << text;

    const SweepReport parsed = parseSweepReport(text);
    ASSERT_EQ(parsed.entries.size(), 1u);
    EXPECT_EQ(parsed.entries[0].text, report.entries[0].text);
    ASSERT_EQ(parsed.failures.size(), 1u);
    EXPECT_EQ(parsed.failures[0].id, id);
    EXPECT_EQ(toJson(parsed), text);
    EXPECT_TRUE(
        diffSweepReports(parsed, report, withTol(0)).empty());
}

TEST(SweepReport, ThreeShardFig09MergeIsByteIdenticalToUnsharded)
{
    const SweepSpec *spec = findSweep("fig09");
    ASSERT_NE(spec, nullptr);
    ExperimentOptions opt;
    opt.instrPerThread = 1'000;

    const std::string full = toJson(reportFor(*spec, opt, {0, 1}));

    std::vector<SweepReport> shards;
    for (std::uint32_t i = 0; i < 3; ++i) {
        // Round-trip each shard through its serialized form, exactly
        // as the CLI does when merging files from other CI jobs.
        shards.push_back(
            parseSweepReport(toJson(reportFor(*spec, opt, {i, 3}))));
    }
    const SweepReport merged = mergeSweepReports(shards);
    EXPECT_EQ(merged.shardIndex, 0u);
    EXPECT_EQ(merged.shardCount, 1u);
    EXPECT_EQ(toJson(merged), full);
}

TEST(SweepReport, MergeRejectsIncompleteAndMismatchedShards)
{
    const SweepSpec *spec = findSweep("smoke");
    ASSERT_NE(spec, nullptr);
    ExperimentOptions opt;
    opt.instrPerThread = 1'000;
    const SweepReport s0 = reportFor(*spec, opt, {0, 2});
    const SweepReport s1 = reportFor(*spec, opt, {1, 2});

    EXPECT_NO_THROW(mergeSweepReports({s0, s1}));
    // Missing a shard.
    EXPECT_THROW(mergeSweepReports({s0}), std::runtime_error);
    // Same shard twice.
    EXPECT_THROW(mergeSweepReports({s0, s0}), std::runtime_error);
    // Mixed sweeps.
    SweepReport other = s1;
    other.sweep = "fig09";
    EXPECT_THROW(mergeSweepReports({s0, other}), std::runtime_error);
    // Mismatched manifests.
    SweepReport trimmed = s1;
    trimmed.totalPoints = 3;
    EXPECT_THROW(mergeSweepReports({s0, trimmed}), std::runtime_error);
    EXPECT_THROW(mergeSweepReports({}), std::runtime_error);
}

TEST(SweepReport, DiffAcceptsIdenticalAndToleratedDrift)
{
    const SweepSpec *spec = findSweep("smoke");
    ASSERT_NE(spec, nullptr);
    ExperimentOptions opt;
    opt.instrPerThread = 1'000;
    const SweepReport a = reportFor(*spec, opt, {0, 1});

    // Identical reports agree at zero tolerance.
    EXPECT_TRUE(diffSweepReports(a, a, withTol(0.0)).empty());

    // Perturb one metric by ~0.05%: caught at 0.01%, passed at 1%.
    SweepReport drifted = a;
    const std::string key = "\"committed_instructions\": ";
    auto pos = drifted.entries[0].text.find(key);
    ASSERT_NE(pos, std::string::npos);
    pos += key.size();
    const auto end = drifted.entries[0].text.find_first_of(",\n", pos);
    const std::uint64_t value =
        std::stoull(drifted.entries[0].text.substr(pos, end - pos));
    const std::uint64_t bumped = value + value / 2000 + 1;
    drifted.entries[0].text.replace(pos, end - pos,
                                    std::to_string(bumped));
    const auto drifts = diffSweepReports(a, drifted, withTol(0.01));
    ASSERT_EQ(drifts.size(), 1u);
    EXPECT_NE(drifts[0].find("committed_instructions"),
              std::string::npos);
    EXPECT_TRUE(diffSweepReports(a, drifted, withTol(1.0)).empty());

    // The key filter and regress-only mode gate sweep entries too: the
    // bump is outside the "ipc" keys and an increase, not a regression.
    BenchDiffOptions ipc_only = withTol(0.01);
    ipc_only.keys = {"ipc"};
    EXPECT_TRUE(diffSweepReports(a, drifted, ipc_only).empty());
    BenchDiffOptions regress = withTol(0.01);
    regress.regressOnly = true;
    EXPECT_TRUE(diffSweepReports(a, drifted, regress).empty());
    EXPECT_EQ(diffSweepReports(drifted, a, regress).size(), 1u);
}

TEST(SweepReport, DiffRejectsStructuralMismatch)
{
    const SweepSpec *spec = findSweep("smoke");
    ASSERT_NE(spec, nullptr);
    ExperimentOptions opt;
    opt.instrPerThread = 1'000;
    const SweepReport a = reportFor(*spec, opt, {0, 1});

    // Different sweep name.
    SweepReport renamed = a;
    renamed.sweep = "fig09";
    EXPECT_THROW(diffSweepReports(a, renamed, withTol(1.0)),
                 std::runtime_error);

    // A renamed metric key is structural, not numeric drift.
    SweepReport rekeyed = a;
    auto pos = rekeyed.entries[0].text.find("\"ssd_writes\"");
    ASSERT_NE(pos, std::string::npos);
    rekeyed.entries[0].text.replace(pos, 12, "\"ssd_writez\"");
    EXPECT_THROW(diffSweepReports(a, rekeyed, withTol(100.0)),
                 std::runtime_error);

    // Fewer points is incomparable.
    SweepReport shorter = a;
    shorter.entries.pop_back();
    EXPECT_THROW(diffSweepReports(a, shorter, withTol(1.0)),
                 std::runtime_error);
}

/** @p report with entry @p index demoted to a failure record. */
SweepReport
withFailure(const SweepReport &report, std::size_t index,
            const std::string &status, const std::string &detail)
{
    SweepReport out = report;
    for (auto it = out.entries.begin(); it != out.entries.end(); ++it) {
        if (it->index != index)
            continue;
        // Recover the id from the entry text ("id": "...").
        const std::string key = "\"id\": \"";
        const auto at = it->text.find(key) + key.size();
        const std::string id =
            it->text.substr(at, it->text.find('"', at) - at);
        out.failures.push_back({index, id, status, 3, detail});
        out.entries.erase(it);
        return out;
    }
    throw std::runtime_error("no entry with that index");
}

TEST(SweepReport, FailureManifestRoundTripsAndEmptyManifestIsOmitted)
{
    const SweepSpec *spec = findSweep("smoke");
    ASSERT_NE(spec, nullptr);
    ExperimentOptions opt;
    opt.instrPerThread = 1'000;
    const SweepReport complete = reportFor(*spec, opt, {0, 1});

    // A fully successful report serializes no manifest at all — the
    // pre-existing byte layout (merge identity, pinned fingerprints)
    // must not change.
    EXPECT_EQ(toJson(complete).find("\"failures\""), std::string::npos);

    const SweepReport partial =
        withFailure(complete, 2, "failed", "signal 9 (Killed)");
    const std::string text = toJson(partial);
    EXPECT_NE(text.find("\"failures\""), std::string::npos);

    const SweepReport parsed = parseSweepReport(text);
    ASSERT_EQ(parsed.failures.size(), 1u);
    EXPECT_EQ(parsed.failures[0].index, 2u);
    EXPECT_EQ(parsed.failures[0].id, partial.failures[0].id);
    EXPECT_EQ(parsed.failures[0].status, "failed");
    EXPECT_EQ(parsed.failures[0].attempts, 3u);
    EXPECT_EQ(parsed.failures[0].detail, "signal 9 (Killed)");
    EXPECT_EQ(parsed.entries.size(), complete.entries.size() - 1);
    EXPECT_EQ(toJson(parsed), text);
}

TEST(SweepReport, MergeAcceptsPartialShardsAndKeepsTheManifest)
{
    const SweepSpec *spec = findSweep("smoke");
    ASSERT_NE(spec, nullptr);
    ExperimentOptions opt;
    opt.instrPerThread = 1'000;
    const SweepReport s0 = reportFor(*spec, opt, {0, 2});
    const SweepReport s1 = reportFor(*spec, opt, {1, 2});

    // A failure record covers its index: the merge stays legal and the
    // manifest survives into the merged report.
    const SweepReport s1partial =
        withFailure(s1, 1, "timeout", "killed after 5000 ms");
    const SweepReport merged = mergeSweepReports({s0, s1partial});
    EXPECT_EQ(merged.entries.size(), 3u);
    ASSERT_EQ(merged.failures.size(), 1u);
    EXPECT_EQ(merged.failures[0].index, 1u);
    EXPECT_EQ(merged.failures[0].status, "timeout");

    // The merged partial round-trips.
    EXPECT_EQ(toJson(parseSweepReport(toJson(merged))), toJson(merged));

    // An index covered by neither entries nor failures is still a lost
    // shard, not a partial run.
    SweepReport dropped = s1;
    dropped.entries.pop_back();
    EXPECT_THROW(mergeSweepReports({s0, dropped}), std::runtime_error);

    // An index covered twice (entry here, failure there) is corrupt.
    SweepReport overlap = s1;
    overlap.failures.push_back({0, "ycsb/Base-CSSD", "failed", 1, ""});
    EXPECT_THROW(mergeSweepReports({s0, overlap}), std::runtime_error);
}

TEST(SweepReport, DiffComparesPartialReportsGracefully)
{
    const SweepSpec *spec = findSweep("smoke");
    ASSERT_NE(spec, nullptr);
    ExperimentOptions opt;
    opt.instrPerThread = 1'000;
    const SweepReport a = reportFor(*spec, opt, {0, 1});
    const SweepReport partial =
        withFailure(a, 3, "failed", "exit 7");

    // Succeeded-vs-failed is drift, not a structural error, and the
    // drift names the point and both dispositions.
    const auto drifts = diffSweepReports(a, partial, withTol(1.0));
    ASSERT_EQ(drifts.size(), 1u);
    EXPECT_NE(drifts[0].find("srad/SkyByte-Full"), std::string::npos);
    EXPECT_NE(drifts[0].find("ok"), std::string::npos);
    EXPECT_NE(drifts[0].find("failed"), std::string::npos);

    // Two partials that agree on the failure have no drift.
    EXPECT_TRUE(
        diffSweepReports(partial, partial, withTol(0.0)).empty());

    // Disagreeing failure statuses drift too.
    const SweepReport timed =
        withFailure(a, 3, "timeout", "killed after 5000 ms");
    const auto status_drift =
        diffSweepReports(partial, timed, withTol(1.0));
    ASSERT_EQ(status_drift.size(), 1u);
    EXPECT_NE(status_drift[0].find("failed"), std::string::npos);
    EXPECT_NE(status_drift[0].find("timeout"), std::string::npos);
}

TEST(SweepReport, ParseRejectsGarbage)
{
    EXPECT_THROW(parseSweepReport("not json"), std::runtime_error);
    EXPECT_THROW(parseSweepReport("{\"skybyte_sweep_report\": 2}"),
                 std::runtime_error);
    EXPECT_THROW(
        parseSweepReport("{\"skybyte_sweep_report\": 1, "
                         "\"sweep\": \"x\", \"total_points\": 1, "
                         "\"shard_index\": 0, \"shard_count\": 1, "
                         "\"points\": [{\"index\": 0"),
        std::runtime_error);
}

} // namespace
} // namespace skybyte
