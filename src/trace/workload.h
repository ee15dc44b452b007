/**
 * @file
 * Multi-threaded workload generation: the batched trace-stream API and
 * the self-registering workload registry.
 *
 * The paper replays PIN-captured instruction traces of seven data-intensive
 * applications (Table I). We do not have those traces, so each workload is
 * reproduced as a deterministic generator that emits the same *statistical*
 * shape: memory footprint, write ratio, LLC MPKI class, and the per-page
 * spatial locality that Figures 5/6 characterise (see DESIGN.md §1).
 *
 * A trace record is "k compute instructions followed by one memory access".
 * Generators are pull-based and **batched**: the front end refills a
 * fixed-capacity per-thread TraceBatch in one virtual call, and the core
 * model consumes it as a flat pointer walk (ThreadContext::fetch is an
 * inline array read). The record stream per thread is identical to
 * fetching records one at a time — batching is a wall-clock optimization
 * with no simulated-behaviour effect, which the equivalence tests in
 * tests/test_workload_spec.cc pin via SimResult fingerprints.
 *
 * Workloads are instantiated from spec strings (workload_spec.h) through
 * a global registry: all seven paper workloads plus parameterized
 * synthetic scenarios (zipf, scan, ptrchase, phased, uniform) register
 * themselves, and user code can registerWorkload() its own generators,
 * making them available to skybyte_sim, skybyte_sweep, the config-file
 * front end and the trace tools without touching the core.
 */

#ifndef SKYBYTE_TRACE_WORKLOAD_H
#define SKYBYTE_TRACE_WORKLOAD_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "trace/workload_spec.h"

namespace skybyte {

/** One unit of work: @c computeOps ALU instructions, then one memory op. */
struct TraceRecord
{
    std::uint32_t computeOps = 0;
    bool isWrite = false;
    Addr vaddr = 0;
};

/**
 * A fixed-capacity block of trace records for one thread: the unit of
 * transfer across the Workload virtual boundary. refill() overwrites
 * records[0..count) and resets cursor; consumers walk records[cursor]
 * upward. 256 records (4 KB) amortize the virtual call and stay
 * cache-resident.
 */
struct TraceBatch
{
    static constexpr std::uint32_t kCapacity = 256;

    TraceRecord records[kCapacity];
    std::uint32_t count = 0;  ///< filled records
    std::uint32_t cursor = 0; ///< next record to consume

    bool drained() const { return cursor >= count; }
};

/** Construction parameters common to all workloads. */
struct WorkloadParams
{
    int numThreads = 8;
    /** Total instructions (compute + memory) each thread executes. */
    std::uint64_t instrPerThread = 1'000'000;
    /** 0 selects the workload's default (1/64 of the paper's footprint). */
    std::uint64_t footprintBytes = 0;
    std::uint64_t seed = 42;
};

/**
 * Abstract multi-threaded workload. All threads share one virtual address
 * space; the shared data region is what lands in the CXL-SSD.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /** Bytes of shared application data (maps to the CXL-SSD). */
    virtual std::uint64_t footprintBytes() const = 0;

    /** Base virtual address of the shared data region. */
    static constexpr Addr kDataBase = 0x4000'0000ULL;

    /** Base of per-thread private regions (maps to host DRAM). */
    static constexpr Addr kPrivateBase = 0x40'0000'0000ULL;

    /** Private-region stride between threads. */
    static constexpr Addr kPrivateStride = 64ULL * 1024 * 1024;

    virtual int numThreads() const = 0;

    /**
     * Refill @p batch with the next records for thread @p tid:
     * overwrite records[0..n), set count = n, reset cursor, return n.
     * May return fewer than kCapacity records while the stream is
     * live; 0 means the thread's budget is exhausted (and every later
     * call must keep returning 0). The per-thread record sequence must
     * not depend on refill granularity.
     */
    virtual std::uint32_t refill(int tid, TraceBatch &batch) = 0;

    /** Instructions already generated for @p tid (compute + memory). */
    virtual std::uint64_t instructionsEmitted(int tid) const = 0;

    /**
     * Always false: a System calls refill() only from the thread that
     * runs it, and nothing in the simulator reads this. It remains
     * because the end-to-end benchmark's self-test
     * (e2ebench/selftest.cc) checks that its timing decorator reports
     * false; it goes once that check does.
     */
    virtual bool concurrentRefillSafe() const { return false; }
};

/**
 * Single-record pull over one thread of a batched workload: the
 * convenience view for offline consumers (trace capture, statistics,
 * cache warmup, tests). next() is an inline array walk; the virtual
 * refill runs once per kCapacity records.
 */
class TraceCursor
{
  public:
    TraceCursor(Workload &workload, int tid)
        : workload_(&workload), tid_(tid)
    {}

    /** @retval false once the thread's stream is exhausted. */
    bool
    next(TraceRecord &rec)
    {
        if (batch_.drained()) {
            if (done_ || workload_->refill(tid_, batch_) == 0) {
                done_ = true;
                return false;
            }
        }
        rec = batch_.records[batch_.cursor++];
        return true;
    }

  private:
    Workload *workload_;
    int tid_;
    bool done_ = false;
    TraceBatch batch_;
};

/**
 * Reference adapter reproducing the seed's per-record contract: wraps
 * any workload and refills exactly one record per virtual call. The
 * batching-equivalence tests run a full System against this wrapper
 * and require a bit-identical SimResult fingerprint, and
 * bench_workload_stream measures the per-record virtual overhead the
 * batched API removes.
 */
class SingleRecordWorkload : public Workload
{
  public:
    explicit SingleRecordWorkload(std::unique_ptr<Workload> inner)
        : inner_(std::move(inner))
    {
        cursors_.reserve(
            static_cast<std::size_t>(inner_->numThreads()));
        for (int t = 0; t < inner_->numThreads(); ++t)
            cursors_.emplace_back(*inner_, t);
    }

    std::string name() const override { return inner_->name(); }
    std::uint64_t footprintBytes() const override
    {
        return inner_->footprintBytes();
    }
    int numThreads() const override { return inner_->numThreads(); }
    std::uint64_t instructionsEmitted(int tid) const override
    {
        return inner_->instructionsEmitted(tid);
    }

    std::uint32_t
    refill(int tid, TraceBatch &batch) override
    {
        batch.cursor = 0;
        batch.count = 0;
        TraceRecord rec;
        if (!cursors_[static_cast<std::size_t>(tid)].next(rec))
            return 0;
        batch.records[0] = rec;
        batch.count = 1;
        return 1;
    }

  private:
    std::unique_ptr<Workload> inner_;
    std::vector<TraceCursor> cursors_;
};

/** Paper-reported characteristics, for Table I reporting. */
struct WorkloadInfo
{
    std::string suite;
    double paperFootprintGb;
    double paperWriteRatio;
    double paperLlcMpki;
};

/** @name Workload registry.
 * Every generator registers under a stable name; the built-in set
 * (seven Table I workloads + the synthetic scenarios) registers on
 * first use, and registerWorkload() adds user-defined generators on
 * top — they become reachable from every front end that accepts a
 * workload spec string.
 * @{ */

/** One registry entry. */
struct WorkloadRegistration
{
    /** Registry key (the spec-string name). */
    std::string name;
    /** One-line description for usage/help output. */
    std::string summary;
    /** Spec-arg help, e.g. "theta=,write_ratio=,compute=". */
    std::string argHelp;
    /** One of the seven Table I workloads. */
    bool paper = false;
    /**
     * Replays an external capture file rather than generating records:
     * not constructible without arguments and carrying no pinnable
     * default behaviour, so the registry-sweep tests skip it.
     */
    bool replay = false;
    /** Table I metadata (synthetic scenarios carry nominal values). */
    WorkloadInfo info;
    /**
     * Build an instance. @p args gives typed access to the spec
     * arguments (common keys footprint/threads/instr/seed are already
     * applied to @p params); unconsumed keys are rejected afterwards.
     */
    std::function<std::unique_ptr<Workload>(WorkloadSpecArgs &args,
                                            const WorkloadParams &params)>
        make;
};

/** Register @p reg. @throws std::invalid_argument on duplicate name. */
void registerWorkload(WorkloadRegistration reg);

/** Look up a registration; nullptr when unknown. */
const WorkloadRegistration *findWorkload(const std::string &name);

/** All registered workload names, sorted. */
std::vector<std::string> registeredWorkloadNames();
/** @} */

/**
 * Instantiate a workload from a parsed spec. Common spec args
 * (footprint/threads/instr/seed) override @p params; remaining args
 * parameterize the generator.
 * @throws std::invalid_argument for unknown names (the message lists
 *         the registered names) or bad/unknown arguments.
 */
std::unique_ptr<Workload> makeWorkload(const WorkloadSpec &spec,
                                       const WorkloadParams &params);

/** Parse @p spec_text (name or name:k=v,...) and instantiate. */
std::unique_ptr<Workload> makeWorkload(const std::string &spec_text,
                                       const WorkloadParams &params);

/** The seven Table I workload names, in the paper's order. */
const std::vector<std::string> &paperWorkloadNames();

/** Lookup Table I metadata for @p name (must be registered). */
const WorkloadInfo &workloadInfo(const std::string &name);

} // namespace skybyte

#endif // SKYBYTE_TRACE_WORKLOAD_H
