/**
 * @file
 * Self-test of the benchmark's own machinery, on small points:
 *  - TimedWorkload forwards every call, so a traced point's report is
 *    byte-identical to the untraced one;
 *  - the digest gate catches a one-knob config change;
 *  - the point check flags a timed-out run.
 * Exit 0 when every check holds.
 */

#include <iostream>
#include <stdexcept>

#include "e2e.h"
#include "sim/report.h"

namespace {

using namespace e2e;

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok)
        failures++;
}

/** Small point @p index of bench workload @p name. */
skybyte::SweepPoint
smallPoint(const std::string &name, std::size_t index)
{
    return benchPoints(*findBenchWorkload(name), kDefaultSeed, 2'000)
        .at(index)
        .point;
}

void
decoratorForwards()
{
    skybyte::WorkloadParams params;
    params.numThreads = 4;
    params.instrPerThread = 5'000;
    RefillTally tally;
    TimedWorkload timed(skybyte::makeWorkload("srad", params), tally);
    auto plain = skybyte::makeWorkload("srad", params);

    expect(timed.name() == plain->name(), "decorator forwards name()");
    expect(timed.footprintBytes() == plain->footprintBytes(),
           "decorator forwards footprintBytes()");
    expect(timed.numThreads() == plain->numThreads(),
           "decorator forwards numThreads()");
    expect(!timed.concurrentRefillSafe(),
           "decorator keeps refills on the calling thread");

    bool same = true;
    std::uint64_t calls = 0;
    for (int t = 0; t < plain->numThreads(); ++t) {
        skybyte::TraceBatch a;
        skybyte::TraceBatch b;
        for (;;) {
            const std::uint32_t na = timed.refill(t, a);
            const std::uint32_t nb = plain->refill(t, b);
            calls++;
            same = same && na == nb;
            for (std::uint32_t i = 0; same && i < nb; ++i) {
                same = a.records[i].vaddr == b.records[i].vaddr
                       && a.records[i].isWrite == b.records[i].isWrite
                       && a.records[i].computeOps
                              == b.records[i].computeOps;
            }
            if (!same || nb == 0)
                break;
        }
        same = same
               && timed.instructionsEmitted(t) == plain->instructionsEmitted(t);
    }
    expect(same, "decorator forwards refill() and instructionsEmitted()");
    expect(tally.calls == calls && tally.seconds > 0,
           "decorator tallies every refill");

    for (const char *name : {"paper-skybyte", "paper-cssd", "paper-dram"}) {
        const skybyte::SweepPoint p = smallPoint(name, 0);
        const PointRun plain_run = runPoint(p);
        const PointRun traced = runPointTraced(p);
        expect(checkPointRun(plain_run).empty(),
               std::string(name) + ": small point passes the point check");
        expect(traced.json == plain_run.json,
               std::string(name) + ": traced report == untraced report");
        expect(traced.refill.calls > 0, std::string(name)
                                            + ": run refills are traced");
        expect((traced.warmRefill.calls > 0) == !p.cfg.dramOnly,
               std::string(name) + ": warmup refills traced iff warmup runs");
    }
}

void
digestGate()
{
    const std::string key = "paper-cssd/bc";
    skybyte::SweepPoint p = smallPoint("paper-cssd", 0);
    const std::string json = runPoint(p).json;
    const DigestTable table =
        parseDigests(formatDigests({{key, digestOf(json)}}));
    expect(checkDigest(table, key, json).empty(),
           "digest gate passes the pinned report");
    expect(!checkDigest(table, "paper-cssd/tpcc", json).empty(),
           "digest gate fails a point with no pinned digest");

    p.cfg.flash.timing.readLatency *= 2;
    expect(!checkDigest(table, key, runPoint(p).json).empty(),
           "digest gate catches a doubled flash read latency");

    bool threw = false;
    try {
        parseDigests("paper-cssd/bc 0123\n");
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    expect(threw, "digest parser rejects a short digest");
    threw = false;
    try {
        parseDigests("a 0123456789abcdef\na 0123456789abcdef\n");
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    expect(threw, "digest parser rejects a duplicate key");
}

void
pointCheck()
{
    PointRun run = runPoint(smallPoint("paper-dram", 1));
    expect(checkPointRun(run).empty(), "sound run passes the point check");
    run.result.timedOut = true;
    expect(!checkPointRun(run).empty(), "point check flags a timeout");
    run.result.timedOut = false;
    run.result.committedInstructions--;
    expect(!checkPointRun(run).empty(), "point check flags lost work");
}

} // namespace

int
main()
{
    try {
        decoratorForwards();
        digestGate();
        pointCheck();
    } catch (const std::exception &e) {
        std::cout << "FAIL exception: " << e.what() << "\n";
        return 1;
    }
    std::cout << (failures == 0 ? "all checks passed\n" : "checks failed\n");
    return failures == 0 ? 0 : 1;
}
