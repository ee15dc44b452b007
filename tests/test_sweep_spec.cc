/**
 * @file
 * Tests for the declarative sweep API: the global registry holds every
 * figure/table/ablation sweep with its table printer, every printer
 * looks up only points its grid contains, the cross-product expansion
 * applies axes in order, and the shard selector partitions any sweep
 * into disjoint, complete subsets for adversarial shard counts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/sweep.h"

namespace skybyte {
namespace {

TEST(SweepRegistry, EnumeratesEveryPaperSweep)
{
    const std::vector<const SweepSpec *> all = registeredSweeps();
    std::set<std::string> names;
    for (const SweepSpec *spec : all) {
        names.insert(spec->name);
        EXPECT_FALSE(spec->title.empty()) << spec->name;
        EXPECT_GT(spec->pointCount(), 0u) << spec->name;
    }
    // Every paper figure/table/ablation grid must be registered, with
    // the printer of its table.
    for (const char *required :
         {"fig02", "fig03", "fig04", "fig05", "fig06", "fig09",
          "fig10", "fig14", "fig15", "fig16", "fig17", "fig18",
          "fig19", "fig20", "fig21", "fig22", "fig23", "table1",
          "table3", "abl_dram_model", "abl_gc_wear", "abl_hugepage",
          "abl_mshr_free", "abl_promotion", "abl_reclaim", "smoke"}) {
        EXPECT_TRUE(names.count(required)) << required;
        const SweepSpec *spec = findSweep(required);
        if (spec != nullptr && std::string(required) != "smoke") {
            EXPECT_TRUE(spec->table) << required;
        }
    }
    EXPECT_EQ(findSweep("no-such-sweep"), nullptr);
}

TEST(SweepRegistry, EveryTableLooksUpOnlyRealPoints)
{
    // Pair every point with an empty result and print each table
    // without simulating: SweepExecution::at() throws on any (row, col)
    // the grid does not contain, so a label typo in a printer fails.
    ExperimentOptions opt;
    opt.instrPerThread = 1'000;
    for (const SweepSpec *spec : registeredSweeps()) {
        if (!spec->table)
            continue;
        SweepExecution exec;
        exec.points = spec->expand(opt);
        exec.results.resize(exec.points.size());
        exec.totalPoints = exec.points.size();
        std::FILE *out = std::tmpfile();
        ASSERT_NE(out, nullptr);
        EXPECT_NO_THROW(spec->table(*spec, exec, out)) << spec->name;
        EXPECT_GT(std::ftell(out), 0) << spec->name;
        std::fclose(out);
    }
}

TEST(SweepExecution, AtThrowsOnUnknownLabels)
{
    const SweepSpec *spec = findSweep("smoke");
    ASSERT_NE(spec, nullptr);
    ExperimentOptions opt;
    opt.instrPerThread = 1'000;
    SweepExecution exec;
    exec.points = spec->expand(opt);
    exec.results.resize(exec.points.size());
    exec.results[3].execTime = 42;
    // Row-major: point 3 is the second workload x second variant.
    EXPECT_EQ(exec.at("srad", "SkyByte-Full").execTime, 42u);
    EXPECT_THROW(exec.at("srad", "SkyByte-Fulll"), std::out_of_range);
    EXPECT_THROW(exec.at("no-such-row", "Base-CSSD"), std::out_of_range);
    EXPECT_THROW(exec.at("Base-CSSD", "ycsb"), std::out_of_range);
}

TEST(SweepRegistry, RegistersUserSweepsAndRejectsDuplicates)
{
    SweepSpec spec;
    spec.name = "test_user_sweep";
    spec.title = "user-defined";
    spec.axes.push_back(workloadAxis({"ycsb"}));
    registerSweep(spec);
    ASSERT_NE(findSweep("test_user_sweep"), nullptr);
    EXPECT_THROW(registerSweep(spec), std::invalid_argument);

    SweepSpec empty;
    empty.name = "test_empty_sweep";
    EXPECT_THROW(registerSweep(empty), std::invalid_argument);
}

TEST(SweepSpec, ExpandsTheFullCrossProductInOrder)
{
    const SweepSpec *spec = findSweep("fig09");
    ASSERT_NE(spec, nullptr);
    ASSERT_EQ(spec->axes.size(), 2u);
    const std::size_t nw = spec->axes[0].values.size();
    const std::size_t nt = spec->axes[1].values.size();
    EXPECT_EQ(spec->pointCount(), nw * nt);

    ExperimentOptions opt;
    opt.instrPerThread = 1'000;
    const std::vector<LabeledPoint> points = spec->expand(opt);
    ASSERT_EQ(points.size(), nw * nt);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const LabeledPoint &lp = points[i];
        EXPECT_EQ(lp.index, i);
        ASSERT_EQ(lp.labels.size(), 2u);
        // Row-major: first axis (workload) varies slowest.
        EXPECT_EQ(lp.labels[0], spec->axes[0].values[i / nt].label);
        EXPECT_EQ(lp.labels[1], spec->axes[1].values[i % nt].label);
        EXPECT_EQ(lp.row(), lp.labels[0]);
        EXPECT_EQ(lp.col(), lp.labels[1]);
        EXPECT_EQ(lp.id(), lp.labels[0] + "/" + lp.labels[1]);
        // The axes actually mutated the point.
        EXPECT_EQ(lp.point.workload, lp.labels[0]);
        EXPECT_EQ(lp.point.cfg.policy.csThreshold,
                  usToTicks(std::stod(lp.labels[1])));
        EXPECT_EQ(lp.point.opt.instrPerThread, 1'000u);
    }
}

TEST(SweepSpec, AxesApplyInDeclarationOrder)
{
    // fig22's config axis rebuilds the variant config; the nand axis
    // then overwrites the flash timing. If apply order ever flipped,
    // the timing would be reset to the variant default (ULL).
    const SweepSpec *spec = findSweep("fig22");
    ASSERT_NE(spec, nullptr);
    ExperimentOptions opt;
    const std::vector<LabeledPoint> points = spec->expand(opt);
    bool saw_mlc_full = false;
    for (const LabeledPoint &lp : points) {
        if (lp.labels[1] == "Full-24" && lp.labels[2] == "MLC") {
            saw_mlc_full = true;
            EXPECT_EQ(lp.point.cfg.name, "SkyByte-Full");
            EXPECT_EQ(lp.point.opt.threadsOverride, 24);
            EXPECT_EQ(lp.point.cfg.flash.timing.readLatency,
                      nandTiming(NandType::MLC).readLatency);
            EXPECT_EQ(lp.col(), "Full-24/MLC");
        }
    }
    EXPECT_TRUE(saw_mlc_full);
}

TEST(Shard, ParsesAndRejects)
{
    EXPECT_EQ(parseShard("0/1").index, 0u);
    EXPECT_EQ(parseShard("0/1").count, 1u);
    EXPECT_EQ(parseShard("2/3").index, 2u);
    EXPECT_EQ(parseShard("2/3").count, 3u);
    for (const char *bad : {"", "1", "3/3", "4/3", "x/2", "1/x",
                            "1/0", "1/2junk", "/2", "1/", "1/-1",
                            "-1/2", "+1/2", "4294967296/4294967297"}) {
        EXPECT_THROW(parseShard(bad), std::invalid_argument) << bad;
    }
}

TEST(Shard, PartitionsAreDisjointAndCompleteForAdversarialCounts)
{
    const SweepSpec *spec = findSweep("fig09");
    ASSERT_NE(spec, nullptr);
    const std::size_t total = spec->pointCount();
    // More shards than points, prime counts, exact fit, one shard.
    for (const std::uint32_t n :
         {1u, 2u, 3u, 5u, 7u, static_cast<std::uint32_t>(total),
          29u, 1000u}) {
        std::set<std::size_t> seen;
        for (std::uint32_t i = 0; i < n; ++i) {
            const ShardSpec shard{i, n};
            for (std::size_t idx = 0; idx < total; ++idx) {
                if (!shardOwns(shard, idx))
                    continue;
                EXPECT_TRUE(seen.insert(idx).second)
                    << "index " << idx << " owned twice at N=" << n;
            }
        }
        EXPECT_EQ(seen.size(), total) << "incomplete at N=" << n;
    }
}

TEST(Shard, ShardedRunsMatchTheUnshardedRunExactly)
{
    const SweepSpec *spec = findSweep("smoke");
    ASSERT_NE(spec, nullptr);
    ExperimentOptions opt;
    opt.instrPerThread = 2'000;
    const SweepExecution full = runSweepShard(*spec, opt, {0, 1}, 2);
    ASSERT_EQ(full.points.size(), spec->pointCount());
    std::size_t covered = 0;
    for (std::uint32_t i = 0; i < 2; ++i) {
        const SweepExecution shard =
            runSweepShard(*spec, opt, {i, 2}, 2);
        EXPECT_EQ(shard.totalPoints, full.points.size());
        for (std::size_t k = 0; k < shard.points.size(); ++k) {
            const std::size_t idx = shard.points[k].index;
            ASSERT_LT(idx, full.results.size());
            EXPECT_EQ(shard.results[k].execTime,
                      full.results[idx].execTime);
            EXPECT_EQ(shard.results[k].committedInstructions,
                      full.results[idx].committedInstructions);
            EXPECT_EQ(shard.results[k].flashHostPrograms,
                      full.results[idx].flashHostPrograms);
            covered++;
        }
    }
    EXPECT_EQ(covered, full.points.size());
}

} // namespace
} // namespace skybyte
