/**
 * @file
 * Tests for the allocation-free request-path infrastructure:
 *
 *  - InlineFunction semantics: inline vs heap-fallback targets, move
 *    transfer, null states, and destruction counts
 *  - Slab recycling: construct/destroy pairing and address stability
 *  - Request-path fingerprint pinning: full-system SimResult JSON must
 *    stay bit-identical to the checked-in references for SkyByte-Full,
 *    Base-CSSD, and DRAM-Only across three workload specs, with
 *    functional payload off (the default) and on (SimConfig::audit).
 *    One pinned case runs SkyByte-Full at bench-scale caches on a
 *    write-heavy workload, so the references also pin dirty-line
 *    evictions to the device, log compaction and flash programs;
 *    configs with shrunk caches, which compact the write log and write
 *    dirty pages back, must also agree with payload off and on.
 *    Regenerate after an intentional behavior change with
 *      SKYBYTE_REGEN_FINGERPRINTS=1 ./test_request_path
 *    and commit the files under tests/data/request_path/.
 *  - Drain invariant: the fingerprint configs, plus one AstriFlash-CXL
 *    run, leave no LLC MSHR, flash fetch or AstriFlash fill in flight
 *    once every event has run.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/slab.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/system.h"
#include "sweep_reference.h"

namespace skybyte {
namespace {

// -------------------------------------------------------- InlineFunction

struct DtorCounter
{
    int *count;
    explicit DtorCounter(int *c) : count(c) {}
    DtorCounter(DtorCounter &&other) noexcept : count(other.count)
    {
        other.count = nullptr;
    }
    ~DtorCounter()
    {
        if (count != nullptr)
            ++*count;
    }
};

TEST(InlineFunction, InlineTargetInvokesAndDestructsOnce)
{
    int destroyed = 0;
    {
        InlineFunction<int(int), 48> fn(
            [d = DtorCounter(&destroyed)](int x) { return x + 1; });
        EXPECT_TRUE(static_cast<bool>(fn));
        EXPECT_EQ(fn(41), 42);
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunction, OversizedTargetDoesNotConstruct)
{
    // A callable larger than the buffer is a compile error, so no
    // callback ever spills to the heap.
    std::array<std::uint64_t, 8> payload{};
    payload[7] = 7;
    auto fn = [payload] { return payload[7]; };
    static_assert(sizeof(fn) == 64);
    static_assert(!std::is_constructible_v<
                  InlineFunction<std::uint64_t(), 16>, decltype(fn)>);
    static_assert(std::is_constructible_v<
                  InlineFunction<std::uint64_t(), 64>, decltype(fn)>);
    InlineFunction<std::uint64_t(), 64> fits(fn);
    EXPECT_EQ(fits(), 7u);
}

TEST(InlineFunction, MoveAssignDestroysPreviousTarget)
{
    int first = 0, second = 0;
    InlineFunction<void(), 48> fn([d = DtorCounter(&first)] {});
    fn = InlineFunction<void(), 48>([d = DtorCounter(&second)] {});
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 0);
    fn = nullptr;
    EXPECT_EQ(second, 1);
    EXPECT_FALSE(static_cast<bool>(fn));
}

// ------------------------------------------------------------------ Slab

TEST(Slab, RecyclesStorageAndPairsDestructors)
{
    struct Rec
    {
        int *live;
        explicit Rec(int *l) : live(l) { ++*live; }
        ~Rec() { --*live; }
    };
    int live = 0;
    Slab<Rec> slab(4); // tiny chunks: force multiple refills
    std::vector<Rec *> recs;
    for (int i = 0; i < 64; ++i)
        recs.push_back(slab.alloc(&live));
    EXPECT_EQ(live, 64);
    Rec *recycled = recs.back();
    slab.release(recycled);
    EXPECT_EQ(live, 63);
    // LIFO free list: the very next alloc reuses the released node.
    EXPECT_EQ(slab.alloc(&live), recycled);
    EXPECT_EQ(live, 64);
    for (Rec *r : recs)
        slab.release(r);
    EXPECT_EQ(live, 0);
}

// ------------------------------------------- request-path fingerprints

struct FingerprintCase
{
    const char *variant;
    const char *workload;
    /**
     * Bench-scale caches (applyBenchScale): the case evicts dirty LLC
     * lines to the device, and its test asserts that it does.
     */
    bool writePath = false;
};

constexpr FingerprintCase kCases[] = {
    {"SkyByte-Full", "zipf:footprint=4M,instr=60000,threads=2"},
    {"SkyByte-Full", "scan:footprint=4M,instr=60000,threads=2"},
    {"SkyByte-Full", "ptrchase:footprint=2M,instr=40000,threads=2"},
    {"Base-CSSD", "zipf:footprint=4M,instr=60000,threads=2"},
    {"Base-CSSD", "scan:footprint=4M,instr=60000,threads=2"},
    {"Base-CSSD", "ptrchase:footprint=2M,instr=40000,threads=2"},
    {"DRAM-Only", "zipf:footprint=4M,instr=60000,threads=2"},
    {"DRAM-Only", "scan:footprint=4M,instr=60000,threads=2"},
    {"DRAM-Only", "ptrchase:footprint=2M,instr=40000,threads=2"},
    {"SkyByte-Full",
     "zipf:footprint=64M,instr=200000,threads=2,write_ratio=0.9,theta=0.2",
     true},
};

SimConfig
caseConfig(const FingerprintCase &c)
{
    return c.writePath ? makeBenchConfig(c.variant) : makeConfig(c.variant);
}

std::string
fingerprintPath(const FingerprintCase &c)
{
    std::string wl(c.workload);
    const auto colon = wl.find(':');
    if (colon != std::string::npos)
        wl = wl.substr(0, colon);
    return testDataPath(std::string("request_path/") + c.variant + "."
                        + wl + (c.writePath ? ".bench" : "") + ".json");
}

/** Read the checked-in reference of @p c into @p out. */
::testing::AssertionResult
readFingerprint(const FingerprintCase &c, std::string &out)
{
    std::ifstream in(fingerprintPath(c));
    if (!in) {
        return ::testing::AssertionFailure()
               << "missing reference " << fingerprintPath(c)
               << " (run with SKYBYTE_REGEN_FINGERPRINTS=1 to create)";
    }
    std::ostringstream ref;
    ref << in.rdbuf();
    out = ref.str();
    return ::testing::AssertionSuccess();
}

TEST(RequestPathFingerprint, SimResultsMatchCheckedInReferences)
{
    const bool regen =
        std::getenv("SKYBYTE_REGEN_FINGERPRINTS") != nullptr;
    for (const FingerprintCase &c : kCases) {
        SimConfig cfg = caseConfig(c);
        const SimResult res =
            runSimulation(cfg, c.workload, WorkloadParams{});
        if (c.writePath) {
            EXPECT_GT(res.ssdWrites, 0u) << c.workload;
            EXPECT_GT(res.compactions, 0u) << c.workload;
            EXPECT_GT(res.flashHostPrograms, 0u) << c.workload;
        }
        const std::string json = toJson(res);
        const std::string path = fingerprintPath(c);
        if (regen) {
            std::ofstream out(path);
            ASSERT_TRUE(static_cast<bool>(out)) << path;
            out << json;
            continue;
        }
        std::string ref;
        ASSERT_TRUE(readFingerprint(c, ref));
        EXPECT_EQ(json, ref)
            << c.variant << " / " << c.workload
            << ": request-path refactor broke bit-identity";
    }
}

TEST(RequestPathFingerprint, PayloadNeverDrivesResults)
{
    // With functional payload on, every layer carries line values; the
    // results must still match the payload-free references byte for
    // byte, so no value ever feeds timing or statistics.
    for (const FingerprintCase &c : kCases) {
        SimConfig cfg = caseConfig(c);
        cfg.audit = true;
        const SimResult res =
            runSimulation(cfg, c.workload, WorkloadParams{});
        std::string ref;
        ASSERT_TRUE(readFingerprint(c, ref));
        EXPECT_EQ(toJson(res), ref)
            << c.variant << " / " << c.workload
            << ": payload changed a simulated result";
    }
}

TEST(RequestPathFingerprint, RunsDrainEveryInFlightTable)
{
    // Once the events a finished run leaves behind have run too, every
    // miss has been answered: no LLC MSHR, flash fetch or AstriFlash
    // fill may still be held.
    std::vector<std::pair<SimConfig, std::string>> runs;
    for (const FingerprintCase &c : kCases)
        runs.emplace_back(caseConfig(c), c.workload);
    runs.emplace_back(makeConfig("AstriFlash-CXL"),
                      "zipf:footprint=4M,instr=60000,threads=2");
    int astri_runs = 0;
    for (const auto &[cfg, workload] : runs) {
        System sys(cfg, workload, WorkloadParams{});
        sys.run();
        sys.eventQueue().run();
        ASSERT_EQ(sys.eventQueue().pending(), 0u) << workload;
        EXPECT_EQ(sys.uncore().linesInFlight(), 0u) << workload;
        EXPECT_EQ(sys.ssd().fetchesInFlight(), 0u) << workload;
        if (AstriFlashCache *astri = sys.astriflash()) {
            EXPECT_EQ(astri->pendingFills(), 0u) << workload;
            ++astri_runs;
        }
    }
    EXPECT_EQ(astri_runs, 1);
}

TEST(RequestPathFingerprint, PayloadNeverDrivesWritebackPaths)
{
    // The fingerprint configs barely write to the device. Shrunk caches
    // and a 16 KB write log push writes through the paths that move
    // pages: log compaction (SkyByte-Full/W), Base-CSSD dirty-page
    // writebacks, AstriFlash dirty-page writebacks and TPP demotion
    // (SkyByte-WCT). Payload off and on must agree on every result.
    std::uint64_t compactions = 0, demotions = 0;
    for (const char *variant : {"SkyByte-Full", "SkyByte-W", "Base-CSSD",
                                "AstriFlash-CXL", "SkyByte-WCT"}) {
        for (const char *workload :
             {"ycsb", "zipf:footprint=4M,instr=40000,threads=2"}) {
            SimConfig cfg = makeConfig(variant);
            cfg.cpu.llc.sizeBytes = 64 * 1024;
            cfg.cpu.l2.sizeBytes = 16 * 1024;
            cfg.ssdCache.writeLogBytes = 16 * 1024;
            cfg.ssdCache.dataCacheBytes = 128 * 1024;
            cfg.hostMem.promotedBytesMax = 64 * 1024;
            WorkloadParams params;
            params.numThreads = 2;
            params.instrPerThread = 40'000;
            const SimResult off = runSimulation(cfg, workload, params);
            cfg.audit = true;
            const SimResult on = runSimulation(cfg, workload, params);
            EXPECT_EQ(toJson(off), toJson(on)) << variant << " / "
                                               << workload;
            EXPECT_GT(off.flashHostPrograms, 0u) << variant << " / "
                                                 << workload;
            compactions += off.compactions;
            demotions += off.demotions;
        }
    }
    EXPECT_GT(compactions, 0u);
    EXPECT_GT(demotions, 0u);
}

} // namespace
} // namespace skybyte
