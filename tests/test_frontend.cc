/**
 * @file
 * Tests for the tooling front end: the artifact-style config-file
 * parser, the variant presets, the experiment options, and the JSON /
 * summary reporters.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/config_file.h"
#include "sim/experiment.h"
#include "sim/report.h"

namespace skybyte {
namespace {

TEST(ConfigFile, ParsesArtifactKnobs)
{
    ExperimentSpec spec;
    std::istringstream in(R"(
# SkyByte-Full-like setup
promotion_enable=1
write_log_enable=1
device_triggered_ctx_swt=1
cs_threshold=2000
ssd_cache_size_byte=7340032
write_log_size_byte=1048576
ssd_cache_way=16
host_dram_size_byte=33554432
t_policy=FAIRNESS
flash_type=ULL2
workload=tpcc
num_threads=24
instr_per_thread=50000
seed=99
)");
    applyConfigStream(in, spec);
    EXPECT_TRUE(spec.config.policy.promotionEnable);
    EXPECT_TRUE(spec.config.policy.writeLogEnable);
    EXPECT_TRUE(spec.config.policy.deviceTriggeredCtxSwitch);
    EXPECT_EQ(spec.config.policy.csThreshold, nsToTicks(2000.0));
    EXPECT_EQ(spec.config.ssdCache.dataCacheBytes, 7340032u);
    EXPECT_EQ(spec.config.ssdCache.writeLogBytes, 1048576u);
    EXPECT_EQ(spec.config.ssdCache.dataCacheWays, 16u);
    EXPECT_EQ(spec.config.hostMem.promotedBytesMax, 33554432u);
    EXPECT_EQ(spec.config.policy.schedPolicy, SchedPolicy::Cfs);
    EXPECT_EQ(spec.config.flash.timing.readLatency, usToTicks(4.0));
    EXPECT_EQ(spec.workload.name, "tpcc");
    EXPECT_EQ(spec.params.numThreads, 24);
    EXPECT_EQ(spec.params.instrPerThread, 50000u);
    EXPECT_EQ(spec.config.seed, 99u);
    // promotion_enable implies the SkyByte mechanism by default.
    EXPECT_EQ(spec.config.policy.migration, MigrationMechanism::SkyByte);
}

TEST(ConfigFile, ParsesExtensionKnobs)
{
    ExperimentSpec spec;
    std::istringstream in(R"(
huge_page_byte=2097152
plb_entries=32
reclaim_policy=active_inactive
pinned_device_byte=1048576
dram_bank_model=1
numa_sockets=2
)");
    applyConfigStream(in, spec);
    EXPECT_EQ(spec.config.hostMem.hugePageBytes, 2097152u);
    EXPECT_EQ(spec.config.hostMem.plbEntries, 32u);
    EXPECT_EQ(spec.config.hostMem.reclaim,
              ReclaimPolicy::ActiveInactive);
    EXPECT_EQ(spec.config.hostMem.pinnedDeviceBytes, 1048576u);
    EXPECT_TRUE(spec.config.hostDram.bank.enabled());
    EXPECT_TRUE(spec.config.ssdDram.bank.enabled());
    EXPECT_EQ(spec.config.numa.sockets, 2u);
}

TEST(KernelKnobs, SimulationResultsAreWindowInvariant)
{
    // The calendar window / slab chunk knobs tune wall-clock only:
    // the same run under a tiny window (heavy overflow churn) must
    // produce bit-identical results.
    ExperimentOptions opt;
    opt.instrPerThread = 3'000;
    SimConfig base = makeBenchConfig("SkyByte-Full");
    SimConfig tuned = base;
    tuned.kernel.calendarWindowTicks = 256;
    tuned.kernel.slabChunkRecords = 8;
    const SimResult a = runConfig(base, "ycsb", opt);
    const SimResult b = runConfig(tuned, "ycsb", opt);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.committedInstructions, b.committedInstructions);
    EXPECT_EQ(a.flashHostPrograms, b.flashHostPrograms);
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
    EXPECT_EQ(a.cxlBytes, b.cxlBytes);
}

TEST(ConfigFile, BankModelCanBeTurnedBackOff)
{
    ExperimentSpec spec;
    std::istringstream on(R"(dram_bank_model=1)");
    applyConfigStream(on, spec);
    ASSERT_TRUE(spec.config.hostDram.bank.enabled());
    std::istringstream off(R"(dram_bank_model=0)");
    applyConfigStream(off, spec);
    EXPECT_FALSE(spec.config.hostDram.bank.enabled());
    EXPECT_FALSE(spec.config.ssdDram.bank.enabled());
}

TEST(ConfigFile, RejectsBadHugePageSizes)
{
    for (const char *bad :
         {"huge_page_byte=1000",     // not a multiple of 4 KB
          "huge_page_byte=12288",    // multiple but not a power of two
          "huge_page_byte=2048"}) {  // smaller than a page
        ExperimentSpec spec;
        std::istringstream in(bad);
        EXPECT_THROW(applyConfigStream(in, spec), std::invalid_argument)
            << bad;
    }
    // 0 (off) and 2 MB (SIV) are both fine.
    ExperimentSpec spec;
    std::istringstream in("huge_page_byte=0\nhuge_page_byte=2097152\n");
    EXPECT_NO_THROW(applyConfigStream(in, spec));
}

TEST(ConfigFile, RejectsOversizedHugePages)
{
    // A PLB entry's chunk bitmap holds the 512 pages of one 2 MB region.
    for (const char *bad :
         {"huge_page_byte=4194304", "huge_page_byte=1073741824"}) {
        ExperimentSpec spec;
        try {
            applyAssignment(bad, spec);
            ADD_FAILURE() << bad << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("huge_page_byte"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(spec.config.hostMem.hugePageBytes, 0u) << bad;
    }
}

TEST(ConfigFile, RejectsBadReclaimPolicy)
{
    ExperimentSpec spec;
    std::istringstream in("reclaim_policy=mglru");
    EXPECT_THROW(applyConfigStream(in, spec), std::invalid_argument);
}

TEST(ConfigFile, WorkloadSpecStringsParse)
{
    ExperimentSpec spec;
    std::istringstream in(
        "workload=zipf:theta=0.75,footprint=16M,write_ratio=0.4\n");
    applyConfigStream(in, spec);
    EXPECT_EQ(spec.workload.name, "zipf");
    EXPECT_EQ(spec.workload.raw("theta"), "0.75");
    EXPECT_EQ(spec.workload.raw("footprint"), "16M");
}

TEST(ConfigFile, WorkloadSpecErrorsCarryLineNumbers)
{
    // Unknown workload names and bad generator args must fail at
    // config-parse time, not when the run starts.
    for (const char *bad :
         {"workload=nope", "workload=zipf:theta=1.5",
          "workload=zipf:no_such_arg=1", "workload=zipf:theta="}) {
        ExperimentSpec spec;
        std::istringstream in(bad);
        EXPECT_THROW(applyConfigStream(in, spec), std::invalid_argument)
            << bad;
    }
}

TEST(ConfigFile, RejectsUnknownKeys)
{
    // Retired knobs (lanes=, and the event-kernel sizes now set only
    // through SimConfig::kernel) must fail loudly like any stray key,
    // not be silently ignored.
    for (const std::string key :
         {"no_such_knob", "lanes", "calendar_window_ticks",
          "slab_chunk_records"}) {
        SCOPED_TRACE(key);
        ExperimentSpec spec;
        std::istringstream in(key + "=4\n");
        try {
            applyConfigStream(in, spec);
            ADD_FAILURE() << "accepted unknown key " << key;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    }
}

TEST(ConfigFile, RejectsOutOfRangeRobEntries)
{
    ExperimentSpec spec;
    applyAssignment("rob_entries=4096", spec);
    EXPECT_EQ(spec.config.cpu.robEntries, 4096u);
    for (const char *bad : {"rob_entries=0", "rob_entries=4097",
                            "rob_entries=4294967552"}) {
        try {
            applyAssignment(bad, spec);
            ADD_FAILURE() << bad << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("rob_entries"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(spec.config.cpu.robEntries, 4096u);
}

TEST(ConfigFile, RejectsOutOfRangeNumCores)
{
    ExperimentSpec spec;
    applyAssignment("num_cores=1024", spec);
    EXPECT_EQ(spec.config.cpu.numCores, 1024);
    for (const char *bad : {"num_cores=0", "num_cores=1025",
                            "num_cores=4294967297"}) {
        try {
            applyAssignment(bad, spec);
            ADD_FAILURE() << bad << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("num_cores"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(spec.config.cpu.numCores, 1024);
}

TEST(ConfigFile, RejectsThirtyTwoBitKeysPastTheirRange)
{
    ExperimentSpec spec;
    applyAssignment("plb_entries=4294967295", spec);
    EXPECT_EQ(spec.config.hostMem.plbEntries, 4294967295u);
    for (const std::string key :
         {"ssd_cache_way", "hot_page_threshold", "plb_entries",
          "numa_sockets", "qos_credits_per_epoch"}) {
        for (const char *value : {"4294967296", "4294967297"}) {
            try {
                applyAssignment(key + "=" + value, spec);
                ADD_FAILURE() << key << "=" << value << " was accepted";
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find(key),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    EXPECT_EQ(spec.config.hostMem.plbEntries, 4294967295u);
}

TEST(ConfigFile, RejectsMalformedValues)
{
    ExperimentSpec spec;
    EXPECT_THROW(applyAssignment("cs_threshold=fast", spec),
                 std::invalid_argument);
    // Negative integers must not wrap through stoull.
    EXPECT_THROW(applyAssignment("instr_per_thread=-1", spec),
                 std::invalid_argument);
    EXPECT_THROW(applyAssignment("footprint_byte=-4096", spec),
                 std::invalid_argument);
    EXPECT_THROW(applyAssignment("write_log_enable=maybe", spec),
                 std::invalid_argument);
    EXPECT_THROW(applyAssignment("t_policy=LIFO", spec),
                 std::invalid_argument);
    EXPECT_THROW(applyAssignment("flash_type=QLC", spec),
                 std::invalid_argument);
    EXPECT_THROW(applyAssignment("just-a-word", spec),
                 std::invalid_argument);
}

TEST(ConfigFile, CommentsAndBlanksIgnored)
{
    ExperimentSpec spec;
    std::istringstream in("\n# comment\n  \nwrite_log_enable=1\n");
    applyConfigStream(in, spec);
    EXPECT_TRUE(spec.config.policy.writeLogEnable);
}

TEST(ConfigFile, MissingFileThrows)
{
    ExperimentSpec spec;
    EXPECT_THROW(applyConfigFile("/tmp/definitely_missing.config", spec),
                 std::runtime_error);
}

TEST(ConfigFile, MigrationMechanismSelection)
{
    ExperimentSpec spec;
    applyAssignment("migration_mechanism=tpp", spec);
    EXPECT_EQ(spec.config.policy.migration, MigrationMechanism::Tpp);
    applyAssignment("migration_mechanism=astriflash", spec);
    EXPECT_EQ(spec.config.policy.migration,
              MigrationMechanism::AstriFlash);
}

TEST(Presets, VariantFlagsMatchPaper)
{
    EXPECT_FALSE(makeConfig("Base-CSSD").policy.writeLogEnable);
    EXPECT_TRUE(makeConfig("SkyByte-W").policy.writeLogEnable);
    EXPECT_TRUE(makeConfig("SkyByte-C").policy.deviceTriggeredCtxSwitch);
    EXPECT_TRUE(makeConfig("SkyByte-P").policy.promotionEnable);
    const SimConfig full = makeConfig("SkyByte-Full");
    EXPECT_TRUE(full.policy.writeLogEnable);
    EXPECT_TRUE(full.policy.promotionEnable);
    EXPECT_TRUE(full.policy.deviceTriggeredCtxSwitch);
    EXPECT_TRUE(makeConfig("DRAM-Only").dramOnly);
    EXPECT_EQ(makeConfig("SkyByte-CT").policy.migration,
              MigrationMechanism::Tpp);
    EXPECT_EQ(makeConfig("AstriFlash-CXL").policy.migration,
              MigrationMechanism::AstriFlash);
    EXPECT_THROW(makeConfig("SkyByte-XYZ"), std::invalid_argument);
    EXPECT_EQ(allVariantNames().size(), 8u);
}

TEST(Presets, ThreadCountRule)
{
    ExperimentOptions opt;
    EXPECT_EQ(defaultThreadsFor(makeConfig("Base-CSSD"), opt), 8);
    EXPECT_EQ(defaultThreadsFor(makeConfig("SkyByte-Full"), opt), 24);
    opt.threadsOverride = 16;
    EXPECT_EQ(defaultThreadsFor(makeConfig("SkyByte-Full"), opt), 16);
}

TEST(Presets, WorkNormalizedAcrossThreadCounts)
{
    ExperimentOptions opt;
    opt.instrPerThread = 120'000;
    const WorkloadParams p8 = makeParams(makeConfig("Base-CSSD"), opt);
    const WorkloadParams p24 =
        makeParams(makeConfig("SkyByte-Full"), opt);
    EXPECT_EQ(p8.instrPerThread * 8, p24.instrPerThread * 24);
}

TEST(ExperimentOptions, EnvOverrides)
{
    setenv("SKYBYTE_BENCH_INSTR", "12345", 1);
    setenv("SKYBYTE_BENCH_THREADS", "5", 1);
    setenv("SKYBYTE_BENCH_FOOTPRINT_MB", "3", 1);
    const ExperimentOptions opt = ExperimentOptions::fromEnv();
    EXPECT_EQ(opt.instrPerThread, 12345u);
    EXPECT_EQ(opt.threadsOverride, 5);
    EXPECT_EQ(opt.footprintBytes, 3u * 1024 * 1024);
    unsetenv("SKYBYTE_BENCH_INSTR");
    unsetenv("SKYBYTE_BENCH_THREADS");
    unsetenv("SKYBYTE_BENCH_FOOTPRINT_MB");
}

TEST(Report, JsonContainsKeyFields)
{
    SimResult res;
    res.variant = "SkyByte-Full";
    res.workload = "ycsb";
    res.execTime = usToTicks(1000.0);
    res.committedInstructions = 42;
    res.flashHostPrograms = 7;
    res.offchipLatency.record(100);
    const std::string json = toJson(res);
    EXPECT_NE(json.find("\"variant\": \"SkyByte-Full\""),
              std::string::npos);
    EXPECT_NE(json.find("\"committed_instructions\": 42"),
              std::string::npos);
    EXPECT_NE(json.find("\"flash_host_programs\": 7"),
              std::string::npos);
    EXPECT_NE(json.find("offchip_latency_cdf_ns"), std::string::npos);
    // Braces balance.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(Report, SummaryMentionsEverything)
{
    SimResult res;
    res.variant = "Base-CSSD";
    res.workload = "tpcc";
    std::ostringstream out;
    printSummary(res, out);
    EXPECT_NE(out.str().find("Base-CSSD"), std::string::npos);
    EXPECT_NE(out.str().find("exec_time_ms"), std::string::npos);
    EXPECT_NE(out.str().find("flash_programs"), std::string::npos);
}

TEST(Report, JsonFileRoundTrip)
{
    SimResult res;
    res.variant = "x";
    res.workload = "y";
    const std::string path = "/tmp/skybyte_report_test.json";
    writeJsonFile(res, path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_EQ(all, toJson(res));
    std::remove(path.c_str());
}

} // namespace
} // namespace skybyte
