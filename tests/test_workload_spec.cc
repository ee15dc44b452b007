/**
 * @file
 * Tests for the workload spec front end and the batched stream API:
 * spec-parser grammar and error paths, registry completeness (every
 * paper workload present, every registered name constructible), and
 * the headline equivalence guarantee — a full System run consuming
 * batched refills produces a bit-identical SimResult fingerprint to
 * the same run consuming one record per virtual call (the seed
 * contract, reproduced by SingleRecordWorkload).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/sweep.h"
#include "sim/system.h"
#include "trace/workload.h"
#include "trace/workload_spec.h"
#include "sweep_reference.h"

namespace skybyte {
namespace {

TEST(WorkloadSpecParser, BareNameHasNoArgs)
{
    const WorkloadSpec spec = parseWorkloadSpec("ycsb");
    EXPECT_EQ(spec.name, "ycsb");
    EXPECT_TRUE(spec.args.empty());
    EXPECT_EQ(spec.text(), "ycsb");
}

TEST(WorkloadSpecParser, ArgsParseInOrder)
{
    const WorkloadSpec spec =
        parseWorkloadSpec("zipf:theta=0.99,footprint=8G,compute=2");
    EXPECT_EQ(spec.name, "zipf");
    ASSERT_EQ(spec.args.size(), 3u);
    EXPECT_EQ(spec.args[0].first, "theta");
    EXPECT_EQ(spec.args[0].second, "0.99");
    EXPECT_EQ(spec.raw("footprint"), "8G");
    EXPECT_TRUE(spec.has("compute"));
    EXPECT_FALSE(spec.has("stride"));
    EXPECT_EQ(spec.text(), "zipf:theta=0.99,footprint=8G,compute=2");
}

TEST(WorkloadSpecParser, RejectsMalformedSpecs)
{
    for (const char *bad :
         {"", ":theta=1", "zipf:", "zipf:theta", "zipf:=0.9",
          "zipf:theta=", "zipf:theta=0.9,theta=0.8", "zipf,theta=0.9",
          "zi pf:theta=0.9", "zipf:theta=0.9,,compute=1"}) {
        EXPECT_THROW(parseWorkloadSpec(bad), std::invalid_argument)
            << "\"" << bad << "\"";
    }
}

TEST(WorkloadSpecParser, ByteSuffixes)
{
    EXPECT_EQ(parseByteSize("4096", "x"), 4096u);
    EXPECT_EQ(parseByteSize("512K", "x"), 512u * 1024);
    EXPECT_EQ(parseByteSize("8m", "x"), 8u * 1024 * 1024);
    EXPECT_EQ(parseByteSize("2G", "x"), 2ULL * 1024 * 1024 * 1024);
    EXPECT_THROW(parseByteSize("12Q", "x"), std::invalid_argument);
    EXPECT_THROW(parseByteSize("G", "x"), std::invalid_argument);
    EXPECT_THROW(parseByteSize("", "x"), std::invalid_argument);
    // stoull would wrap negatives to huge values; reject them.
    EXPECT_THROW(parseByteSize("-1", "x"), std::invalid_argument);
    EXPECT_THROW(parseByteSize("-4K", "x"), std::invalid_argument);
    EXPECT_THROW(parseByteSize("+4", "x"), std::invalid_argument);
    // Suffix multiplication must not wrap mod 2^64 (2^54 * 2^30).
    EXPECT_THROW(parseByteSize("18014398509481984G", "x"),
                 std::invalid_argument);
}

TEST(WorkloadSpecParser, RejectsNegativeAndNonFiniteValues)
{
    WorkloadParams params;
    // footprint=-1 must not wrap to 2^64-1 and reclassify every
    // access as host DRAM.
    EXPECT_THROW(makeWorkload("scan:footprint=-1", params),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("uniform:compute=-3", params),
                 std::invalid_argument);
    // NaN compares false against every range guard; it must be
    // rejected before the guards run.
    EXPECT_THROW(makeWorkload("zipf:theta=nan", params),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("zipf:write_ratio=nan", params),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("zipf:theta=inf", params),
                 std::invalid_argument);
    // Values that would truncate through a narrowing cast must error,
    // not silently run a different experiment.
    EXPECT_THROW(makeWorkload("uniform:threads=4294967298", params),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("uniform:compute=4294967300", params),
                 std::invalid_argument);
    // Args that would otherwise be silently rounded/clamped.
    EXPECT_THROW(makeWorkload("scan:stride=100", params),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("scan:stride=0", params),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("ptrchase:chain=0", params),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("phased:phase_instr=0", params),
                 std::invalid_argument);
}

TEST(WorkloadSpecArgsTyped, ConsumptionTracking)
{
    const WorkloadSpec spec = parseWorkloadSpec("uniform:compute=7");
    WorkloadSpecArgs args(spec);
    EXPECT_EQ(args.u64("compute", 4), 7u);
    EXPECT_EQ(args.u64("absent", 11), 11u);
    EXPECT_NO_THROW(args.requireAllConsumed("uniform"));

    WorkloadSpecArgs untouched(spec);
    EXPECT_THROW(untouched.requireAllConsumed("uniform"),
                 std::invalid_argument);
}

TEST(WorkloadRegistry, PaperWorkloadsAllRegistered)
{
    const std::vector<std::string> names = registeredWorkloadNames();
    for (const std::string &paper : paperWorkloadNames()) {
        EXPECT_NE(std::find(names.begin(), names.end(), paper),
                  names.end())
            << paper;
        const WorkloadRegistration *reg = findWorkload(paper);
        ASSERT_NE(reg, nullptr) << paper;
        EXPECT_TRUE(reg->paper) << paper;
        EXPECT_GT(reg->info.paperFootprintGb, 0.0) << paper;
    }
}

TEST(WorkloadRegistry, EveryRegisteredNameIsConstructible)
{
    WorkloadParams params;
    params.numThreads = 2;
    params.instrPerThread = 1'000;
    params.footprintBytes = 4 * 1024 * 1024;
    for (const std::string &name : registeredWorkloadNames()) {
        // Replay entries need a capture file argument; they are
        // covered by tests/test_trace_log.cc.
        if (findWorkload(name)->replay)
            continue;
        auto wl = makeWorkload(name, params);
        ASSERT_NE(wl, nullptr) << name;
        EXPECT_EQ(wl->name(), name);
        EXPECT_EQ(wl->numThreads(), 2) << name;
        // The stream must actually produce records.
        TraceBatch batch;
        EXPECT_GT(wl->refill(0, batch), 0u) << name;
    }
}

TEST(WorkloadRegistry, AtLeastThreeNonPaperScenarios)
{
    int scenarios = 0;
    for (const std::string &name : registeredWorkloadNames()) {
        const WorkloadRegistration *reg = findWorkload(name);
        ASSERT_NE(reg, nullptr);
        if (!reg->paper && !reg->argHelp.empty())
            scenarios++;
    }
    EXPECT_GE(scenarios, 3);
}

TEST(WorkloadRegistry, UnknownNameErrorListsRegisteredNames)
{
    WorkloadParams params;
    try {
        makeWorkload("definitely-not-a-workload", params);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("definitely-not-a-workload"),
                  std::string::npos);
        for (const std::string &name : registeredWorkloadNames())
            EXPECT_NE(msg.find(name), std::string::npos) << name;
    }
}

TEST(WorkloadRegistry, RejectsDuplicatesAndBadArgs)
{
    WorkloadRegistration dup;
    dup.name = "uniform";
    dup.make = [](WorkloadSpecArgs &, const WorkloadParams &)
        -> std::unique_ptr<Workload> { return nullptr; };
    EXPECT_THROW(registerWorkload(std::move(dup)),
                 std::invalid_argument);

    WorkloadParams params;
    EXPECT_THROW(makeWorkload("zipf:theta=0", params),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("zipf:theta=1.2", params),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("zipf:write_ratio=1.5", params),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("zipf:bogus=1", params),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("uniform:threads=0", params),
                 std::invalid_argument);
}

TEST(WorkloadRegistry, UserWorkloadReachableViaSpec)
{
    WorkloadRegistration reg;
    reg.name = "test-constant";
    reg.summary = "single fixed-address scenario for registry tests";
    reg.argHelp = "compute=";
    reg.info = {"test", 0.1, 0.0, 1.0};
    reg.make = [](WorkloadSpecArgs &args, const WorkloadParams &params)
        -> std::unique_ptr<Workload> {
        class ConstWorkload : public Workload
        {
          public:
            ConstWorkload(const WorkloadParams &p, std::uint32_t compute)
                : params_(p), compute_(compute),
                  emitted_(static_cast<std::size_t>(p.numThreads), 0)
            {}
            std::string name() const override { return "test-constant"; }
            std::uint64_t footprintBytes() const override
            {
                return 1 << 20;
            }
            int numThreads() const override { return params_.numThreads; }
            std::uint64_t instructionsEmitted(int tid) const override
            {
                return emitted_[static_cast<std::size_t>(tid)];
            }
            std::uint32_t
            refill(int tid, TraceBatch &batch) override
            {
                auto t = static_cast<std::size_t>(tid);
                std::uint32_t n = 0;
                while (n < TraceBatch::kCapacity
                       && emitted_[t] < params_.instrPerThread) {
                    batch.records[n++] = {compute_, false, kDataBase};
                    emitted_[t] += compute_ + 1;
                }
                batch.count = n;
                batch.cursor = 0;
                return n;
            }

          private:
            WorkloadParams params_;
            std::uint32_t compute_;
            std::vector<std::uint64_t> emitted_;
        };
        return std::make_unique<ConstWorkload>(
            params, static_cast<std::uint32_t>(args.u64("compute", 3)));
    };
    registerWorkload(std::move(reg));

    WorkloadParams params;
    params.numThreads = 1;
    params.instrPerThread = 100;
    auto wl = makeWorkload("test-constant:compute=9", params);
    TraceCursor cursor(*wl, 0);
    TraceRecord rec;
    ASSERT_TRUE(cursor.next(rec));
    EXPECT_EQ(rec.computeOps, 9u);
    EXPECT_EQ(rec.vaddr, Workload::kDataBase);
}

/**
 * The headline guarantee: batching is invisible to the simulation.
 * Running a full System with the batched workload must produce a
 * bit-identical SimResult fingerprint (the serialized JSON) to the
 * same run where every record crosses the virtual boundary alone —
 * the seed's per-record contract, reproduced by SingleRecordWorkload
 * for both the main workload and the warmup pass.
 */
class BatchedFingerprint : public ::testing::TestWithParam<std::string>
{};

TEST_P(BatchedFingerprint, MatchesSingleRecordPath)
{
    const std::string spec = GetParam();
    SimConfig cfg = makeBenchConfig("SkyByte-Full");
    WorkloadParams params;
    params.numThreads = 4;
    params.instrPerThread = 3'000;
    params.footprintBytes = 8 * 1024 * 1024;
    params.seed = cfg.seed;

    System batched(cfg, spec, params);
    const std::string batched_json = toJson(batched.run());

    System stepped(
        cfg,
        std::make_unique<SingleRecordWorkload>(
            makeWorkload(spec, params)),
        [&spec, &params] {
            return std::make_unique<SingleRecordWorkload>(
                makeWorkload(spec, params));
        },
        parseWorkloadSpec(spec).text()); // same report label
    const std::string stepped_json = toJson(stepped.run());

    EXPECT_EQ(batched_json, stepped_json) << spec;
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, BatchedFingerprint,
    ::testing::Values("bc", "bfs-dense", "dlrm", "radix", "srad",
                      "tpcc", "ycsb", "uniform",
                      "zipf:theta=0.9,write_ratio=0.3",
                      "scan:stride=256,write_ratio=0.1",
                      "ptrchase:chain=16", "phased:phase_instr=4000"));

TEST(BatchedFingerprintCoverage, EveryBuiltinWorkloadIsPinned)
{
    // If a new generator is registered, it must be added to the
    // fingerprint suite above (user registrations from other tests in
    // this binary are exempt).
    const std::vector<std::string> pinned = {
        "bc", "bfs-dense", "dlrm", "radix", "srad", "tpcc", "ycsb",
        "uniform", "zipf", "scan", "ptrchase", "phased",
    };
    for (const std::string &name : registeredWorkloadNames()) {
        if (name.rfind("test-", 0) == 0)
            continue;
        // Replay workloads have no default record stream to pin; the
        // replay-vs-live-generator fingerprint lives in
        // tests/test_trace_log.cc.
        if (findWorkload(name)->replay)
            continue;
        EXPECT_NE(std::find(pinned.begin(), pinned.end(), name),
                  pinned.end())
            << "add " << name << " to the BatchedFingerprint suite";
    }
}

TEST(SpecDrivenRun, SweepPointAcceptsSpecStrings)
{
    // The sweep registry's workload axis carries spec strings; a point
    // built from one must run end to end.
    ExperimentOptions opt;
    opt.instrPerThread = 1'000;
    SweepPoint point =
        makeSweepPoint("Base-CSSD", "zipf:theta=0.7,footprint=8M", opt);
    const SimResult res = runConfig(point.cfg, point.workload, point.opt);
    EXPECT_GT(res.committedInstructions, 0u);
    // The report label is the full spec text so differently
    // parameterized runs of one generator stay distinguishable.
    EXPECT_EQ(res.workload, "zipf:theta=0.7,footprint=8M");
}

TEST(SpecDrivenRun, ScenariosSweepIsRegistered)
{
    const SweepSpec *spec = findSweep("scenarios");
    ASSERT_NE(spec, nullptr);
    ASSERT_FALSE(spec->axes.empty());
    // Every scenario spec on the workload axis must be constructible.
    WorkloadParams params;
    params.numThreads = 1;
    params.instrPerThread = 0;
    for (const std::string &label : spec->axes.front().labels())
        EXPECT_NO_THROW(makeWorkload(label, params)) << label;
}

TEST(SpecDrivenRun, ScenariosReportMatchesCheckedInReference)
{
    expectSweepMatchesReference("scenarios");
}

TEST(SpecDrivenRun, ThreadsArgOverridesParams)
{
    WorkloadParams params;
    params.numThreads = 2;
    params.instrPerThread = 500;
    auto wl = makeWorkload("uniform:threads=5", params);
    EXPECT_EQ(wl->numThreads(), 5);

    // System must size its thread contexts from the workload, and the
    // run must retire work from every lane.
    SimConfig cfg = makeBenchConfig("Base-CSSD");
    System sys(cfg, "uniform:threads=5", params);
    EXPECT_EQ(sys.workload().numThreads(), 5);
    const SimResult res = sys.run();
    EXPECT_FALSE(res.timedOut);
    EXPECT_GT(res.committedInstructions, 0u);
}

} // namespace
} // namespace skybyte
