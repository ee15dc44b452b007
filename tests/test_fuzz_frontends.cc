/**
 * @file
 * Deterministic garbage-input fuzzing of the inputs that cross a
 * process boundary — workload specs, config files, sweep reports, and
 * binary STRC trace captures. Every such parser/decoder must fail
 * with an exception, never with a crash, an abort, an over-read, or
 * an unbounded allocation/loop.
 *
 * The fuzzing is seeded byte mutation (replace / insert / delete /
 * truncate) of known-valid inputs, driven by the repo's own xoshiro
 * Rng, so every run exercises the exact same mutants — a failure here
 * reproduces everywhere.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/rng.h"
#include "sim/config_file.h"
#include "sim/report.h"
#include "trace/trace_log/trace_log.h"
#include "trace/workload.h"
#include "trace/workload_spec.h"

namespace skybyte {
namespace {

/** Apply 1-4 random byte mutations to @p text. */
std::string
mutate(const std::string &text, Rng &rng)
{
    std::string out = text;
    const std::uint64_t edits = 1 + rng.below(4);
    for (std::uint64_t e = 0; e < edits && !out.empty(); ++e) {
        const std::size_t at = rng.below(out.size());
        switch (rng.below(4)) {
        case 0: // replace with an arbitrary byte (NUL and UTF-8 too)
            out[at] = static_cast<char>(rng.below(256));
            break;
        case 1: // insert
            out.insert(out.begin() + at,
                       static_cast<char>(rng.below(256)));
            break;
        case 2: // delete
            out.erase(out.begin() + at);
            break;
        case 3: // truncate
            out.resize(at);
            break;
        }
    }
    return out;
}

/**
 * The fuzz property: @p parse either succeeds or throws a
 * std::exception. Anything escaping that contract (a foreign throw
 * type; crashes abort the whole test binary anyway) is a bug.
 */
template <typename Fn>
void
fuzzInput(const std::string &valid, std::uint64_t seed, int rounds,
          Fn &&parse)
{
    // The unmutated input must parse: a fuzz corpus that is itself
    // invalid exercises nothing but the error path.
    parse(valid);

    Rng rng(seed);
    for (int round = 0; round < rounds; ++round) {
        const std::string garbage = mutate(valid, rng);
        try {
            parse(garbage);
        } catch (const std::exception &) {
            // Rejecting garbage with a typed exception is the contract.
        } catch (...) {
            ADD_FAILURE() << "non-std exception for input: " << garbage;
        }
        // Systematic prefix truncations on top of the random ones:
        // every torn-write length must be survivable.
        if (round < static_cast<int>(valid.size())) {
            try {
                parse(valid.substr(0, valid.size() - 1
                                          - static_cast<std::size_t>(
                                              round)));
            } catch (const std::exception &) {
            } catch (...) {
                ADD_FAILURE() << "non-std exception for truncation "
                              << round;
            }
        }
    }
}

TEST(FuzzFrontends, WorkloadSpecsThrowNotCrash)
{
    const std::vector<std::string> corpus = {
        "ycsb",
        "zipf:theta=0.99,footprint=8G,compute=2",
        "scan:stride=128,write_ratio=0.5",
        "mix:app=ycsb;noisy=scan:stride=4096;hot=zipf:theta=1.2",
        "mix:lat=ptrchase:footprint=8M,chain=16,qos=4;"
        "noisy=uniform:footprint=24M,write_ratio=0.2,qos=1",
    };
    std::uint64_t seed = 0xf00dULL;
    for (const std::string &valid : corpus) {
        fuzzInput(valid, seed++, 400, [](const std::string &text) {
            const WorkloadSpec spec = parseWorkloadSpec(text);
            if (spec.isMix())
                parseMixTenants(spec);
        });
    }
}

TEST(FuzzFrontends, ConfigStreamsThrowNotCrash)
{
    const std::string valid = "# skybyte config\n"
                              "promotion_enable=true\n"
                              "cs_threshold=2000\n"
                              "ssd_cache_size_byte=16777216\n"
                              "host_dram_size_byte=1073741824\n"
                              "num_cores=8\n"
                              "num_threads=16\n"
                              "workload=zipf:theta=0.99\n"
                              "instr_per_thread=100000\n"
                              "qos_policy=weighted\n"
                              "qos_epoch_us=5\n"
                              "qos_credits_per_epoch=64\n"
                              "qos_write_log_quota=true\n"
                              "qos_migration_share=false\n"
                              "seed=7\n";
    fuzzInput(valid, 0xcafeULL, 600, [](const std::string &text) {
        std::istringstream in(text);
        ExperimentSpec spec;
        applyConfigStream(in, spec);
    });
}

TEST(FuzzFrontends, QosKnobGarbageThrowsNotCrash)
{
    // Garbage qos= weights on mix tenants are an invalid_argument at
    // workload-construction time, never a crash or a silent default.
    WorkloadParams params;
    params.numThreads = 2;
    for (const std::string bad :
         {"0", "-1", "nan", "inf", "-inf", "junk", "", "1.5x"}) {
        SCOPED_TRACE(bad);
        const std::string spec = "mix:lat=ptrchase:footprint=4M,qos="
                                 + bad + ";noisy=uniform:footprint=4M";
        EXPECT_THROW(makeWorkload(spec, params), std::invalid_argument);
    }
    // qos= is a mix-level key: on a plain workload it is an unknown
    // argument, not a silently ignored one.
    EXPECT_THROW(makeWorkload("uniform:qos=2", params),
                 std::invalid_argument);
    // A valid weighted mix still builds.
    EXPECT_NE(makeWorkload("mix:a=uniform:footprint=4M,qos=2;"
                           "b=uniform:footprint=4M,qos=1",
                           params),
              nullptr);
    // Garbage qos_* and 32-bit config knobs throw, never crash, clamp
    // or truncate.
    for (const std::string bad :
         {"qos_policy=strict", "qos_epoch_us=0", "qos_epoch_us=1000001",
          "qos_epoch_us=abc", "qos_credits_per_epoch=0",
          "qos_credits_per_epoch=4294967296",
          "qos_write_log_quota=maybe", "qos_migration_share=2",
          "ssd_cache_way=4294967296", "hot_page_threshold=4294967296",
          "plb_entries=4294967296", "numa_sockets=4294967297"}) {
        SCOPED_TRACE(bad);
        std::istringstream in(bad + "\n");
        ExperimentSpec spec;
        EXPECT_THROW(applyConfigStream(in, spec),
                     std::invalid_argument);
    }
    std::istringstream ok("qos_policy=weighted\n"
                          "qos_epoch_us=5\n"
                          "qos_credits_per_epoch=64\n"
                          "qos_write_log_quota=true\n"
                          "qos_migration_share=false\n");
    ExperimentSpec qspec;
    applyConfigStream(ok, qspec);
    EXPECT_TRUE(qspec.config.qos.weightedAdmission);
    EXPECT_EQ(qspec.config.qos.epochTicks, usToTicks(5.0));
    EXPECT_EQ(qspec.config.qos.creditsPerEpoch, 64u);
    EXPECT_TRUE(qspec.config.qos.writeLogQuota);
    EXPECT_FALSE(qspec.config.qos.migrationShare);
}

TEST(FuzzFrontends, SweepReportsThrowNotCrash)
{
    // A hand-built but structurally faithful report: two entries made
    // of real toJson(SimResult) bytes plus a failure-manifest record,
    // covering every branch of the parser.
    SimResult res;
    res.variant = "Base-CSSD";
    res.workload = "ycsb";
    SweepReport report;
    report.sweep = "smoke";
    report.totalPoints = 3;
    report.entries.push_back({0, sweepEntryJson(0, "ycsb/Base-CSSD",
                                                res)});
    res.variant = "SkyByte-Full";
    report.entries.push_back({1, sweepEntryJson(1, "ycsb/SkyByte-Full",
                                                res)});
    report.failures.push_back(
        {2, "srad/Base-CSSD", "failed", 3, "signal 9 (Killed)"});
    const std::string valid = toJson(report);

    fuzzInput(valid, 0xbeefULL, 600, [](const std::string &text) {
        parseSweepReport(text);
    });
}

TEST(FuzzFrontends, TraceLogDecoderThrowsNotCrash)
{
    // A small but real STRC capture: several threads, block-boundary
    // tails, and address patterns that make some blocks compress and
    // some store raw — so mutants land in every region of the format
    // (header, compressed/raw payloads, CRCs, varint index, trailer).
    const std::string path =
        ::testing::TempDir() + "/fuzz_corpus.strc";
    {
        TraceLogWriter writer(path, "fuzz", 1u << 20, 3,
                              /*block_records=*/32);
        Rng rng(0x5eedULL);
        for (int tid = 0; tid < 3; ++tid) {
            const int count = 70 + tid * 13; // tails of varied size
            for (int i = 0; i < count; ++i) {
                TraceRecord rec{};
                // Thread 0 strides (compressible deltas); the others
                // jump randomly (raw blocks survive).
                rec.vaddr = tid == 0
                                ? static_cast<std::uint64_t>(i) * 64
                                : rng.below(1u << 20) * 64;
                rec.isWrite = (i % 3) == 0;
                rec.computeOps = static_cast<std::uint32_t>(i % 7);
                writer.append(tid, rec);
            }
        }
        writer.finish();
    }
    const std::string valid = readFileText(path);

    // The decode must visit every byte that can be visited: parse,
    // then decode every block of all three streams.
    fuzzInput(valid, 0x57acULL, 600, [](const std::string &text) {
        TraceLogReader reader(
            std::vector<std::uint8_t>(text.begin(), text.end()));
        for (int tid = 0; tid < reader.numThreads(); ++tid) {
            for (std::uint64_t b = 0; b < reader.blockCount(tid); ++b)
                reader.readBlock(tid, b);
        }
    });
}

} // namespace
} // namespace skybyte
