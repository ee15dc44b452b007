/**
 * @file
 * Tests for the bench-report comparator (sim/benchdiff.h): key-path
 * tracking in the lexer, structural-mismatch rejection, relative
 * tolerance, the --keys path filter, and the regress-only mode — the
 * contract the CI bench-baselines gate (`skybyte_sweep --diff`)
 * relies on.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/benchdiff.h"

namespace skybyte {
namespace {

/** A miniature bench report in the shape the benches emit. */
std::string
report(double near_cal, double near_leg, double geomean)
{
    std::string out = "{\n  \"bench\": \"kernel_hotpath\",\n";
    out += "  \"scenarios\": {\n";
    out += "    \"near\": {\"calendar\": " + std::to_string(near_cal)
           + ", \"legacy\": " + std::to_string(near_leg) + "}\n";
    out += "  },\n  \"speedup_geomean\": " + std::to_string(geomean)
           + "\n}\n";
    return out;
}

TEST(BenchDiff, IdenticalReportsHaveNoDrift)
{
    const std::string a = report(3.2e7, 1.0e7, 3.2);
    EXPECT_TRUE(diffBenchJson(a, a, {}).empty());
}

TEST(BenchDiff, DriftCarriesDottedKeyPath)
{
    BenchDiffOptions opt;
    opt.tolPct = 1.0;
    const auto drifts = diffBenchJson(report(3.2e7, 1.0e7, 3.2),
                                      report(1.6e7, 1.0e7, 3.2), opt);
    ASSERT_EQ(drifts.size(), 1u);
    EXPECT_EQ(drifts[0].path, "scenarios.near.calendar");
    EXPECT_DOUBLE_EQ(drifts[0].baseline, 3.2e7);
    EXPECT_DOUBLE_EQ(drifts[0].current, 1.6e7);
    EXPECT_TRUE(drifts[0].regression);
    EXPECT_NEAR(drifts[0].relPct, 50.0, 1e-9);
}

TEST(BenchDiff, WithinToleranceIsNotADrift)
{
    BenchDiffOptions opt;
    opt.tolPct = 10.0;
    EXPECT_TRUE(diffBenchJson(report(100, 50, 2.0),
                              report(95, 52, 2.05), opt)
                    .empty());
}

TEST(BenchDiff, RenamedMetricIsStructural)
{
    const std::string a = report(100, 50, 2.0);
    std::string b = a;
    b.replace(b.find("legacy"), 6, "seeded");
    EXPECT_THROW(diffBenchJson(a, b, {}), std::runtime_error);
}

TEST(BenchDiff, AddedMetricIsStructural)
{
    const std::string a = report(100, 50, 2.0);
    std::string b = a;
    const std::string needle = "\"speedup_geomean\"";
    b.insert(b.find(needle), "\"extra\": 1,\n  ");
    EXPECT_THROW(diffBenchJson(a, b, {}), std::runtime_error);
}

TEST(BenchDiff, KeysFilterGatesOnlySelectedPaths)
{
    BenchDiffOptions opt;
    opt.tolPct = 1.0;
    opt.keys = {"speedup"};
    // Both throughputs halve, but only the geomean is gated.
    const auto drifts = diffBenchJson(report(100, 50, 4.0),
                                      report(50, 25, 2.0), opt);
    ASSERT_EQ(drifts.size(), 1u);
    EXPECT_EQ(drifts[0].path, "speedup_geomean");
}

TEST(BenchDiff, RegressOnlySkipsImprovements)
{
    BenchDiffOptions opt;
    opt.tolPct = 1.0;
    opt.regressOnly = true;
    // calendar doubles (improvement), legacy halves (regression).
    const auto drifts = diffBenchJson(report(100, 50, 2.0),
                                      report(200, 25, 2.0), opt);
    ASSERT_EQ(drifts.size(), 1u);
    EXPECT_EQ(drifts[0].path, "scenarios.near.legacy");
    EXPECT_TRUE(drifts[0].regression);
}

TEST(BenchDiff, ArrayElementsInheritTheArrayKey)
{
    const std::string a = "{\"curve\": [1, 2, 3]}";
    const std::string b = "{\"curve\": [1, 2, 6]}";
    BenchDiffOptions opt;
    opt.tolPct = 1.0;
    const auto drifts = diffBenchJson(a, b, opt);
    ASSERT_EQ(drifts.size(), 1u);
    EXPECT_EQ(drifts[0].path, "curve");
    EXPECT_DOUBLE_EQ(drifts[0].current, 6.0);
}

TEST(BenchDiff, StringValueChangeIsStructural)
{
    EXPECT_THROW(diffBenchJson("{\"unit\": \"events_per_sec\"}",
                               "{\"unit\": \"requests_per_sec\"}", {}),
                 std::runtime_error);
}

TEST(BenchDiff, FormatMentionsPathAndDirection)
{
    BenchDiffOptions opt;
    opt.tolPct = 1.0;
    const auto drifts = diffBenchJson(report(100, 50, 4.0),
                                      report(100, 50, 2.0), opt);
    ASSERT_EQ(drifts.size(), 1u);
    const std::string line = formatBenchDrift(drifts[0], opt);
    EXPECT_NE(line.find("speedup_geomean"), std::string::npos);
    EXPECT_NE(line.find("regression"), std::string::npos);
}

} // namespace
} // namespace skybyte
