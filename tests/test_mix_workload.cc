/**
 * @file
 * Tests for the `mix:` co-location combinator: grammar round-trips and
 * error paths, the round-robin thread-assignment policy, footprint
 * namespacing (tenants never alias device pages), refill-routing
 * determinism (the per-thread stream is invariant under refill
 * granularity, mirroring the PR 3 batched-vs-single-record pins), the
 * single-tenant degeneration guarantee (`mix:a=zipf` is bit-identical
 * to plain `zipf`), the TenantMap classifiers and weight split, and the
 * checked-in `colocation` and `qos` sweep references.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "sim/config_file.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/sweep.h"
#include "sim/system.h"
#include "trace/mix_workload.h"
#include "trace/workload.h"
#include "trace/workload_spec.h"
#include "sweep_reference.h"

namespace skybyte {
namespace {

TEST(MixSpecParser, RoundTripsTenantEntries)
{
    const std::string text =
        "mix:a=zipf:theta=0.9,footprint=4M;b=scan:threads=2";
    const WorkloadSpec spec = parseWorkloadSpec(text);
    EXPECT_TRUE(spec.isMix());
    ASSERT_EQ(spec.args.size(), 2u);
    EXPECT_EQ(spec.args[0].first, "a");
    EXPECT_EQ(spec.args[0].second, "zipf:theta=0.9,footprint=4M");
    EXPECT_EQ(spec.args[1].first, "b");
    EXPECT_EQ(spec.args[1].second, "scan:threads=2");
    EXPECT_EQ(spec.text(), text);

    const std::vector<MixTenantSpec> tenants = parseMixTenants(spec);
    ASSERT_EQ(tenants.size(), 2u);
    EXPECT_EQ(tenants[0].tenant, "a");
    EXPECT_EQ(tenants[0].spec.name, "zipf");
    EXPECT_EQ(tenants[0].spec.raw("footprint"), "4M");
    EXPECT_EQ(tenants[1].spec.name, "scan");

    // Re-parsing the canonical text reproduces the spec.
    EXPECT_EQ(parseWorkloadSpec(spec.text()).text(), spec.text());
}

TEST(MixSpecParser, RejectsMalformedMixes)
{
    for (const char *bad : {
             "mix",                      // empty mix
             "mix:",                     // empty tenant list
             "mix:a=",                   // empty child spec
             "mix:=zipf",                // empty tenant name
             "mix:a=zipf;a=scan",        // duplicate tenant name
             "mix:a=zipf;;b=scan",       // empty entry
             "mix:a=zipf;",              // trailing empty entry
             "mix:a=mix:b=zipf",         // nested mix
             "mix:a=zi pf",              // malformed child name
             "mix:a=zipf:theta",         // malformed child arg
             "mix:a b=zipf",             // bad tenant name
         }) {
        EXPECT_THROW(parseWorkloadSpec(bad), std::invalid_argument)
            << "\"" << bad << "\"";
    }
    // Not-a-mix specs must not reach parseMixTenants.
    EXPECT_THROW(parseMixTenants(parseWorkloadSpec("zipf")),
                 std::invalid_argument);
}

TEST(MixSpecParser, MixNameIsReservedInTheRegistry)
{
    WorkloadRegistration reg;
    reg.name = "mix";
    reg.make = [](WorkloadSpecArgs &, const WorkloadParams &)
        -> std::unique_ptr<Workload> { return nullptr; };
    EXPECT_THROW(registerWorkload(std::move(reg)),
                 std::invalid_argument);
}

TEST(MixThreadAssignment, ExplicitCountsAndRoundRobinRemainder)
{
    // b pins 2 of 8 threads; a (implicit) takes the other 6.
    const std::vector<int> counts = mixTenantThreadCounts(8, {-1, 2});
    EXPECT_EQ(counts, (std::vector<int>{6, 2}));

    // All-explicit mixes define their own total (params ignored).
    EXPECT_EQ(mixTenantThreadCounts(8, {3, 2}),
              (std::vector<int>{3, 2}));

    // Remainder spreads round-robin: 7 - 2 = 5 over three implicit
    // tenants -> 2, 2, 1 in declaration order.
    EXPECT_EQ(mixTenantThreadCounts(7, {-1, 2, -1, -1}),
              (std::vector<int>{2, 2, 2, 1}));

    // Over-subscription and starvation are errors.
    EXPECT_THROW(mixTenantThreadCounts(4, {-1, 5}),
                 std::invalid_argument);
    EXPECT_THROW(mixTenantThreadCounts(4, {4, -1}),
                 std::invalid_argument);
    EXPECT_THROW(mixTenantThreadCounts(2, {-1, -1, -1}),
                 std::invalid_argument);
    EXPECT_THROW(mixTenantThreadCounts(4, {}), std::invalid_argument);
}

TEST(MixThreadAssignment, RoundRobinProperty)
{
    // Property sweep: every resolved assignment covers each tid once,
    // honours the per-tenant counts, interleaves round-robin (in any
    // prefix, tenants that still have quota differ by at most one
    // assigned thread), and is deterministic.
    const std::vector<std::vector<int>> patterns = {
        {-1},       {-1, -1},     {2, -1},  {-1, 3},
        {1, 1},     {2, -1, -1},  {-1, -1, -1}, {4, 1, -1},
    };
    for (int total = 1; total <= 12; ++total) {
        for (const std::vector<int> &requested : patterns) {
            std::vector<int> counts;
            try {
                counts = mixTenantThreadCounts(total, requested);
            } catch (const std::invalid_argument &) {
                continue; // over-subscribed combination
            }
            SCOPED_TRACE("total=" + std::to_string(total));
            for (std::size_t i = 0; i < requested.size(); ++i) {
                if (requested[i] >= 0) {
                    EXPECT_EQ(counts[i], requested[i]);
                }
                EXPECT_GE(counts[i], 1);
            }
            const std::vector<int> assignment =
                mixThreadAssignment(counts);
            EXPECT_EQ(assignment, mixThreadAssignment(counts));

            std::vector<int> seen(counts.size(), 0);
            for (std::size_t tid = 0; tid < assignment.size(); ++tid) {
                const int t = assignment[tid];
                ASSERT_GE(t, 0);
                ASSERT_LT(t, static_cast<int>(counts.size()));
                seen[static_cast<std::size_t>(t)]++;
                // Round-robin fairness: among tenants with quota left
                // after this prefix, assigned counts differ by <= 1.
                int lo = INT32_MAX;
                int hi = 0;
                for (std::size_t k = 0; k < counts.size(); ++k) {
                    if (seen[k] < counts[k]) {
                        lo = std::min(lo, seen[k]);
                        hi = std::max(hi, seen[k]);
                    }
                }
                if (lo != INT32_MAX) {
                    EXPECT_LE(hi - lo, 1);
                }
            }
            for (std::size_t k = 0; k < counts.size(); ++k)
                EXPECT_EQ(seen[k], counts[k]);
        }
    }
}

WorkloadParams
smallParams()
{
    WorkloadParams params;
    params.numThreads = 4;
    params.instrPerThread = 3'000;
    params.footprintBytes = 8 * 1024 * 1024;
    return params;
}

TEST(MixWorkloadRouting, TenantsNeverAliasDevicePages)
{
    WorkloadParams params = smallParams();
    params.numThreads = 5;
    auto wl = makeWorkload(
        "mix:a=zipf:theta=0.9,footprint=4M;b=scan:footprint=8M,"
        "threads=2;c=uniform:footprint=4M", params);
    auto *mix = dynamic_cast<MixWorkload *>(wl.get());
    ASSERT_NE(mix, nullptr);
    ASSERT_EQ(mix->tenants().size(), 3u);
    EXPECT_EQ(mix->numThreads(), 5);
    const std::unique_ptr<TenantMap> map = mix->tenantMap();
    ASSERT_NE(map, nullptr);
    EXPECT_EQ(mix->footprintBytes(),
              16ULL * 1024 * 1024); // 4M + 8M + 4M, page aligned

    // Drain every thread; every device access must land inside its
    // thread's tenant window and every private access inside the
    // global thread's private window.
    for (int tid = 0; tid < mix->numThreads(); ++tid) {
        const MixTenant &tenant =
            mix->tenants()[static_cast<std::size_t>(map->ofThread(tid))];
        const Addr data_lo = Workload::kDataBase + tenant.deviceBase;
        const Addr data_hi = data_lo + tenant.footprintBytes;
        const Addr priv_lo = Workload::kPrivateBase
                             + static_cast<Addr>(tid)
                                   * Workload::kPrivateStride;
        TraceCursor cursor(*mix, tid);
        TraceRecord rec;
        std::uint64_t device_records = 0;
        while (cursor.next(rec)) {
            if (rec.vaddr >= Workload::kDataBase
                && rec.vaddr < Workload::kPrivateBase) {
                EXPECT_GE(rec.vaddr, data_lo);
                EXPECT_LT(rec.vaddr, data_hi);
                device_records++;
                EXPECT_EQ(map->ofDevice(rec.vaddr - Workload::kDataBase),
                          map->ofThread(tid));
            } else {
                EXPECT_GE(rec.vaddr, priv_lo);
                EXPECT_LT(rec.vaddr,
                          priv_lo + Workload::kPrivateStride);
            }
        }
        EXPECT_GT(device_records, 0u) << "thread " << tid;
    }
}

TEST(TenantMap, ClassifiesEveryAddressKind)
{
    // Three tenants: a (4M, 2 threads), b (8M, 2 threads), c (4M, 1
    // thread); global threads are dealt a, b, c, a, b.
    WorkloadParams params = smallParams();
    params.numThreads = 5;
    auto wl = makeWorkload(
        "mix:a=zipf:footprint=4M;b=scan:footprint=8M,threads=2;"
        "c=uniform:footprint=4M", params);
    const auto *mix = dynamic_cast<const MixWorkload *>(wl.get());
    ASSERT_NE(mix, nullptr);
    const std::unique_ptr<TenantMap> map = mix->tenantMap();
    ASSERT_NE(map, nullptr);
    ASSERT_EQ(map->size(), 3u);

    constexpr Addr kMiB = 1024 * 1024;
    const Addr data = Workload::kDataBase;
    auto priv = [](Addr tid, Addr off) {
        return Workload::kPrivateBase + tid * Workload::kPrivateStride
               + off;
    };
    const Addr last = Workload::kPrivateStride - 1;
    const struct
    {
        const char *what;
        Addr vaddr;
        int tenant;
    } rows[] = {
        {"a first byte", data, 0},
        {"a last byte", data + 4 * kMiB - 1, 0},
        {"b first byte", data + 4 * kMiB, 1},
        {"b last byte", data + 12 * kMiB - 1, 1},
        {"c first byte", data + 12 * kMiB, 2},
        {"c last byte", data + 16 * kMiB - 1, 2},
        {"footprint end", data + 16 * kMiB, -1},
        {"past the end", data + 16 * kMiB + kPageBytes, -1},
        {"below the data base", data - 1, -1},
        {"thread 0 private", priv(0, 0), 0},
        {"thread 1 private", priv(1, last), 1},
        {"thread 2 private", priv(2, 0), 2},
        {"thread 3 private", priv(3, last), 0},
        {"thread 4 private", priv(4, 0), 1},
        {"no such thread", priv(5, 0), -1},
    };
    for (const auto &row : rows) {
        SCOPED_TRACE(row.what);
        EXPECT_EQ(map->ofVaddr(row.vaddr), row.tenant);
        if (row.vaddr >= data && row.vaddr < Workload::kPrivateBase) {
            EXPECT_EQ(map->ofDevice(row.vaddr - data), row.tenant);
        }
    }
    const int owners[] = {0, 1, 2, 0, 1};
    for (int tid = 0; tid < mix->numThreads(); ++tid)
        EXPECT_EQ(map->ofThread(tid), owners[tid]) << "thread " << tid;

    // A single-tenant mix builds no map: it reports like plain zipf.
    auto single = makeWorkload("mix:a=zipf:footprint=4M", params);
    EXPECT_EQ(dynamic_cast<const MixWorkload &>(*single).tenantMap(),
              nullptr);
}

TEST(TenantMap, SplitsByWeightShareWithAFloor)
{
    const TenantMap map({0, kPageBytes, 2 * kPageBytes}, 3 * kPageBytes,
                        {0, 1, 2}, {1.0, 2.0, 1.0});
    EXPECT_EQ(map.splitByWeight(100.0, 1),
              (std::vector<std::uint64_t>{25, 50, 25}));
    // Truncated shares below the floor are raised to it.
    EXPECT_EQ(map.splitByWeight(3.0, 1),
              (std::vector<std::uint64_t>{1, 1, 1}));
    EXPECT_EQ(map.splitByWeight(10.0, 0),
              (std::vector<std::uint64_t>{2, 5, 2}));
    // Malformed layouts are rejected.
    EXPECT_THROW(TenantMap({kPageBytes}, 2 * kPageBytes, {0}, {1.0}),
                 std::invalid_argument);
    EXPECT_THROW(TenantMap({0, kPageBytes}, kPageBytes, {0}, {1.0, 1.0}),
                 std::invalid_argument);
    EXPECT_THROW(TenantMap({0}, kPageBytes, {0}, {1.0, 1.0}),
                 std::invalid_argument);
}

TEST(MixWorkloadRouting, StreamInvariantUnderRefillGranularity)
{
    // The same mix drained through full batches and through
    // one-record TraceCursor pulls must produce identical per-thread
    // record sequences — refill routing cannot depend on granularity.
    const std::string spec =
        "mix:a=zipf:theta=0.8,footprint=4M;b=scan:threads=1";
    WorkloadParams params = smallParams();
    auto batched = makeWorkload(spec, params);
    auto stepped = makeWorkload(spec, params);

    for (int tid = 0; tid < batched->numThreads(); ++tid) {
        SCOPED_TRACE("tid " + std::to_string(tid));
        std::vector<TraceRecord> via_batches;
        TraceBatch batch;
        while (batched->refill(tid, batch) > 0) {
            for (std::uint32_t i = 0; i < batch.count; ++i)
                via_batches.push_back(batch.records[i]);
        }
        std::vector<TraceRecord> via_cursor;
        TraceCursor cursor(*stepped, tid);
        TraceRecord rec;
        while (cursor.next(rec))
            via_cursor.push_back(rec);

        ASSERT_EQ(via_batches.size(), via_cursor.size());
        for (std::size_t i = 0; i < via_batches.size(); ++i) {
            EXPECT_EQ(via_batches[i].vaddr, via_cursor[i].vaddr) << i;
            EXPECT_EQ(via_batches[i].isWrite, via_cursor[i].isWrite);
            EXPECT_EQ(via_batches[i].computeOps,
                      via_cursor[i].computeOps);
        }
    }
}

/**
 * Drop the mix-only report tail (the "tenants" array plus the SLO
 * rollups that follow it) so mix reports compare against plain ones.
 */
std::string
stripTenants(std::string json)
{
    const auto at = json.find("  \"tenants\": [");
    if (at == std::string::npos)
        return json;
    const auto fairness = json.find("\"fairness_ipc\":", at);
    EXPECT_NE(fairness, std::string::npos);
    const auto end = json.find('\n', fairness);
    EXPECT_NE(end, std::string::npos);
    json.erase(at, end + 1 - at);
    const auto comma = json.rfind(",\n", at);
    json.erase(comma, 1); // write_locality_cdf regains last position
    return json;
}

TEST(MixFingerprint, SystemRunInvariantUnderBatchGranularity)
{
    // Mirror of PR 3's BatchedFingerprint for the mix path: a full
    // System run over the batched mix must fingerprint identically to
    // the same run where every record crosses the virtual boundary
    // alone (modulo the per-tenant buckets, which the single-record
    // wrapper hides from the System).
    const std::string spec =
        "mix:a=zipf:theta=0.9,footprint=4M;b=scan:footprint=4M,"
        "threads=2";
    SimConfig cfg = makeBenchConfig("SkyByte-Full");
    WorkloadParams params = smallParams();
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
        parseWorkloadSpec(spec).text());
    const std::string stepped_json = toJson(stepped.run());

    EXPECT_NE(batched_json.find("\"tenants\""), std::string::npos);
    EXPECT_EQ(stripTenants(batched_json), stepped_json);
}

TEST(MixFingerprint, SingleTenantMixMatchesPlainWorkload)
{
    // The acceptance pin: mix:a=zipf degenerates to plain zipf with a
    // bit-identical SimResult fingerprint (same report label forced
    // through the bring-your-own-workload constructor; a 1-tenant mix
    // reports no tenant buckets).
    for (const char *inner :
         {"zipf", "zipf:theta=0.8,write_ratio=0.3", "scan:stride=128",
          "ycsb"}) {
        SCOPED_TRACE(inner);
        const std::string mix_spec = std::string("mix:a=") + inner;
        SimConfig cfg = makeBenchConfig("SkyByte-Full");
        WorkloadParams params = smallParams();
        params.seed = cfg.seed;

        System plain(cfg, inner, params);
        const std::string plain_json = toJson(plain.run());

        System mixed(
            cfg, makeWorkload(mix_spec, params),
            [&mix_spec, &params] {
                return makeWorkload(mix_spec, params);
            },
            parseWorkloadSpec(inner).text()); // same report label
        const std::string mixed_json = toJson(mixed.run());

        EXPECT_EQ(mixed_json.find("\"tenants\""), std::string::npos);
        EXPECT_EQ(plain_json, mixed_json) << inner;
    }
}

TEST(MixFingerprint, DuplicateTenantsAreDecorrelated)
{
    // Two identically-parameterized tenants must not replay the same
    // RNG streams (per-tenant seed decorrelation).
    WorkloadParams params = smallParams();
    params.numThreads = 2;
    auto wl = makeWorkload("mix:a=zipf:footprint=4M;b=zipf:footprint=4M",
                           params);
    auto *mix = dynamic_cast<MixWorkload *>(wl.get());
    ASSERT_NE(mix, nullptr);
    // Thread 0 -> tenant a, thread 1 -> tenant b; both are that
    // child's local thread 0.
    TraceBatch ba;
    TraceBatch bb;
    ASSERT_GT(wl->refill(0, ba), 0u);
    ASSERT_GT(wl->refill(1, bb), 0u);
    ASSERT_EQ(ba.count, bb.count);
    const Addr base_b =
        mix->tenants()[1].deviceBase; // normalize namespacing
    bool differs = false;
    for (std::uint32_t i = 0; i < ba.count && !differs; ++i) {
        const Addr a = ba.records[i].vaddr;
        Addr b = bb.records[i].vaddr;
        if (b >= Workload::kDataBase && b < Workload::kPrivateBase)
            b -= base_b;
        differs = a != b || ba.records[i].isWrite != bb.records[i].isWrite;
    }
    EXPECT_TRUE(differs);
}

TEST(MixConfigFile, SpecErrorsCarryLineNumberKeyAndSpecText)
{
    // The satellite fix: an unknown workload arg reported from a
    // config file names the offending key, the full spec text, and
    // the source line.
    std::istringstream in("seed=7\nworkload=zipf:bogus=3\n");
    ExperimentSpec spec;
    try {
        applyConfigStream(in, spec);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
        EXPECT_NE(msg.find("zipf:bogus=3"), std::string::npos) << msg;
    }

    // Same contract for a bad arg buried inside a mix tenant.
    std::istringstream in2(
        "seed=7\n# comment\nworkload=mix:a=zipf:nope=1;b=scan\n");
    ExperimentSpec spec2;
    try {
        applyConfigStream(in2, spec2);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("nope"), std::string::npos) << msg;
        EXPECT_NE(msg.find("tenant a"), std::string::npos) << msg;
    }

    // A valid mix with explicit threads= passes the parse-time
    // typecheck even though the trial is small.
    std::istringstream in3(
        "workload=mix:a=zipf:threads=2,footprint=4M;b=scan\n"
        "num_threads=8\n");
    ExperimentSpec spec3;
    EXPECT_NO_THROW(applyConfigStream(in3, spec3));
    EXPECT_TRUE(spec3.workload.isMix());
}

TEST(ColocationSweep, RegisteredAndConstructible)
{
    const SweepSpec *spec = findSweep("colocation");
    ASSERT_NE(spec, nullptr);
    ASSERT_FALSE(spec->axes.empty());
    EXPECT_EQ(spec->pointCount(), 9u); // 3 mixes x 3 variants
    WorkloadParams params;
    params.numThreads = 8;
    params.instrPerThread = 0;
    for (const std::string &label : spec->axes.front().labels()) {
        EXPECT_TRUE(parseWorkloadSpec(label).isMix()) << label;
        EXPECT_NO_THROW(makeWorkload(label, params)) << label;
    }
}

TEST(ColocationSweep, ReportMatchesCheckedInReference)
{
    expectSweepMatchesReference("colocation");
}

TEST(QosSweep, ReportMatchesCheckedInReference)
{
    // Weighted admission, write-log quotas and migration shares.
    expectSweepMatchesReference("qos");
}

TEST(ColocationSweep, ShardedEqualsUnsharded)
{
    // Shard/merge byte-identity holds for mix workloads too (the CI
    // sweep-shard matrix runs this same split as two jobs).
    const SweepSpec *spec = findSweep("colocation");
    ASSERT_NE(spec, nullptr);
    ExperimentOptions opt;
    opt.instrPerThread = 1'000; // smaller than the sweep default: fast
    const SweepExecution full = runSweepShard(*spec, opt);

    std::vector<SweepReport> shards;
    for (std::uint32_t s = 0; s < 2; ++s) {
        const SweepExecution part =
            runSweepShard(*spec, opt, ShardSpec{s, 2});
        SweepReport report;
        report.sweep = spec->name;
        report.totalPoints = part.totalPoints;
        report.shardIndex = s;
        report.shardCount = 2;
        for (std::size_t i = 0; i < part.points.size(); ++i) {
            const LabeledPoint &lp = part.points[i];
            report.entries.push_back(
                {lp.index,
                 sweepEntryJson(lp.index, lp.id(), part.results[i])});
        }
        shards.push_back(std::move(report));
    }
    SweepReport serial;
    serial.sweep = spec->name;
    serial.totalPoints = full.totalPoints;
    for (std::size_t i = 0; i < full.points.size(); ++i) {
        const LabeledPoint &lp = full.points[i];
        serial.entries.push_back(
            {lp.index,
             sweepEntryJson(lp.index, lp.id(), full.results[i])});
    }
    EXPECT_EQ(toJson(mergeSweepReports(shards)), toJson(serial));
}

} // namespace
} // namespace skybyte
