/**
 * @file
 * End-to-end simulator benchmark: the workload grid, the timed calls
 * into the simulator's public API, and the correctness gate.
 *
 * Everything here drives `sim`, `ssd`, `trace` and `cpu` from the
 * outside: spans are taken around public calls (System construction,
 * System::run, toJson), a forwarding Workload decorator times the trace
 * refills, and standalone probes re-run the FTL precondition and replay
 * a point's record stream through the cache hierarchy. Nothing under
 * src/ is changed or instrumented.
 */

#ifndef SKYBYTE_E2EBENCH_E2E_H
#define SKYBYTE_E2EBENCH_E2E_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/experiment.h"
#include "trace/workload.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Workload seed used when none is given. */
inline constexpr std::uint64_t kDefaultSeed = 42;

/** One benchmark workload: the seven paper workloads under a variant. */
struct BenchWorkload
{
    std::string name;
    std::string variant;
    /** Instructions per thread at 8 threads (makeParams rescales). */
    std::uint64_t instrPerThread;
    /**
     * Host seconds one sweep is budgeted on the baseline host (a busy
     * hour's sweep, rounded up). A run of --seconds s makes
     * max(3, s / sweepBudgetS) sweeps whatever the code's speed.
     */
    double sweepBudgetS;
};

const std::vector<BenchWorkload> &benchWorkloads();

/** nullptr when @p name is not a benchmark workload. */
const BenchWorkload *findBenchWorkload(const std::string &name);

/**
 * A sweep point plus its digest key,
 * "<bench workload>/<paper workload>@<seed>".
 */
struct BenchPoint
{
    std::string key;
    skybyte::SweepPoint point;
};

/**
 * The workload's sweep at @p seed: makeSweepPoint (bench-scale caches)
 * for each paper workload in Table I order. @p instr_override, when
 * nonzero, replaces the workload's instruction count (tests only).
 */
std::vector<BenchPoint> benchPoints(const BenchWorkload &w,
                                    std::uint64_t seed,
                                    std::uint64_t instr_override = 0);

/** Host time and call count of one kind of refill. */
struct RefillTally
{
    std::uint64_t calls = 0;
    double seconds = 0;
};

/**
 * Forwarding decorator that times every refill() into a caller-owned
 * tally. All other calls forward unchanged, so a System built over it
 * simulates exactly what the spec-built System does.
 * concurrentRefillSafe() stays false: the tally is not synchronized, so
 * traced runs keep refills on the simulation thread.
 */
class TimedWorkload : public skybyte::Workload
{
  public:
    TimedWorkload(std::unique_ptr<skybyte::Workload> inner,
                  RefillTally &tally)
        : inner_(std::move(inner)), tally_(tally)
    {}

    std::string name() const override { return inner_->name(); }
    std::uint64_t
    footprintBytes() const override
    {
        return inner_->footprintBytes();
    }
    int numThreads() const override { return inner_->numThreads(); }
    std::uint64_t
    instructionsEmitted(int tid) const override
    {
        return inner_->instructionsEmitted(tid);
    }

    std::uint32_t
    refill(int tid, skybyte::TraceBatch &batch) override
    {
        const Clock::time_point start = Clock::now();
        const std::uint32_t n = inner_->refill(tid, batch);
        tally_.seconds += secondsSince(start);
        tally_.calls++;
        return n;
    }

  private:
    std::unique_ptr<skybyte::Workload> inner_;
    RefillTally &tally_;
};

/** One simulated point: its result, report bytes and host-time spans. */
struct PointRun
{
    skybyte::SimResult result;
    std::string json;
    /** Sum of the workload's instructionsEmitted over its threads. */
    std::uint64_t emitted = 0;
    double constructS = 0;
    double runS = 0;
    double reportS = 0;
    /** Traced runs only: run-pass and warmup-pass refills. */
    RefillTally refill;
    RefillTally warmRefill;
};

/** Run @p p the way a sweep does: the spec-string System constructor. */
PointRun runPoint(const skybyte::SweepPoint &p);

/**
 * Run @p p through the bring-your-own-workload constructor with
 * TimedWorkload around both the run workload and the warmup factory.
 */
PointRun runPointTraced(const skybyte::SweepPoint &p);

/** Empty when the run is sound, else why not (timeout, lost work). */
std::string checkPointRun(const PointRun &run);

/** Standalone FTL precondition of the point's device. */
struct PreconditionProbe
{
    double seconds = 0;
    std::uint64_t pages = 0;
};

/**
 * Time Ftl::precondition(footprint / kPageBytes) on an SsdController
 * built from the point's SimConfig: the call System construction makes.
 * Zero for configurations that skip it (DRAM-Only).
 */
PreconditionProbe probePrecondition(const skybyte::SweepPoint &p);

/** Standalone cache-hierarchy replay of the point's record stream. */
struct CacheProbe
{
    std::uint64_t calls = 0; ///< SetAssocCache access + fill calls
    double seconds = 0;
};

/**
 * Generate the point's records, then replay them (threads interleaved
 * record by record, thread t on core t mod cores) through per-core
 * L1d/L2 and a shared LLC built from the point's CacheConfigs, with the
 * core model's allocate/writeback rules. Only the replay is timed.
 */
CacheProbe probeCaches(const skybyte::SweepPoint &p);

/** @name Correctness gate: pinned digests of toJson(SimResult). @{ */
/** FNV-1a 64 of @p json as 16 hex digits. */
std::string digestOf(std::string_view json);

/** Point key -> digest. */
using DigestTable = std::map<std::string, std::string>;

/**
 * Parse "key digest" lines; '#' starts a comment line.
 * @throws std::invalid_argument on a malformed line or duplicate key.
 */
DigestTable parseDigests(const std::string &text);
std::string formatDigests(const DigestTable &table);

/** Empty when @p json matches the digest pinned for @p key. */
std::string checkDigest(const DigestTable &table, const std::string &key,
                        std::string_view json);
/** @} */

} // namespace e2e

#endif // SKYBYTE_E2EBENCH_E2E_H
