/**
 * @file
 * Full-system assembly: cores + caches + CXL link + SSD + OS + migration,
 * wired per a SimConfig, executing one multi-threaded workload to
 * completion and returning the statistics every bench and test consumes.
 *
 * The MemRouter is the host physical-address decoder: per-thread private
 * data and promoted pages go to host DRAM; everything else goes to the
 * CXL-SSD (or, for the AstriFlash baseline, through the host page
 * cache). In DRAM-Only mode everything is host DRAM (the paper's ideal).
 */

#ifndef SKYBYTE_SIM_SYSTEM_H
#define SKYBYTE_SIM_SYSTEM_H

#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/event_queue.h"
#include "common/stats.h"
#include "core/astriflash.h"
#include "core/migration.h"
#include "core/os.h"
#include "core/ssd_controller.h"
#include "cpu/core.h"
#include "cpu/uncore.h"
#include "cxl/cxl.h"
#include "mem/dram.h"
#include "trace/tenant_map.h"
#include "trace/workload.h"

namespace skybyte {

/**
 * Per-tenant slice of a co-located (`mix:`) run. Populated only for
 * mixes with two or more tenants; the counters are the run's
 * TenantMap record, counted at the same sample sites as the aggregate
 * SimResult totals, so request counts and off-chip latency samples
 * partition the aggregates exactly (every host/SSD line request is
 * owned by exactly one tenant via its namespaced address range), which
 * tests/test_system.cc pins as a property.
 */
struct TenantResult : TenantCounters
{
    TenantResult() = default;
    /** @p counters plus their derived means. */
    explicit TenantResult(const TenantCounters &counters)
        : TenantCounters(counters),
          flashReadLatencyUs(
              flashPageReads == 0
                  ? 0.0
                  : ticksToUs(static_cast<Tick>(
                        flashReadTicks
                        / static_cast<double>(flashPageReads)))),
          qosThrottleDelayUs(
              ticksToUs(static_cast<Tick>(qosThrottleTicks)))
    {}

    std::string name; ///< tenant label from the mix spec
    std::string spec; ///< child spec text
    int threads = 0;
    /** Instructions the tenant's threads emitted (== committed when
     *  the run finished without timing out). */
    std::uint64_t instructions = 0;
    /** Last completion among the tenant's threads. */
    Tick execTime = 0;
    /** Mean flash read latency of flashPageReads (us). */
    double flashReadLatencyUs = 0;
    /** Relative QoS weight from the mix spec's qos= key (default 1). */
    double qosWeight = 1.0;
    double qosThrottleDelayUs = 0; ///< total admission hold time

    double
    ipc() const
    {
        return execTime == 0
                   ? 0.0
                   : static_cast<double>(instructions)
                         / (static_cast<double>(execTime)
                            / static_cast<double>(kTicksPerCycle));
    }
};

/** Everything a run produces (see DESIGN.md §4 for figure mapping). */
struct SimResult
{
    std::string variant;
    std::string workload;
    bool timedOut = false;

    /** Execution time: last thread completion. */
    Tick execTime = 0;
    std::uint64_t committedInstructions = 0;

    /** Fig 4 / Fig 10 boundedness breakdown (summed over cores). */
    Tick computeTicks = 0;
    Tick memStallTicks = 0;
    Tick ctxSwitchTicks = 0;
    Tick idleTicks = 0;
    std::uint64_t contextSwitches = 0;

    /** Fig 16 request breakdown. */
    std::uint64_t hostReads = 0;
    std::uint64_t hostWrites = 0;
    std::uint64_t ssdReadHits = 0;   ///< S-R-H (log or cache)
    std::uint64_t ssdReadMisses = 0; ///< S-R-M
    std::uint64_t ssdWrites = 0;     ///< S-W

    /** Fig 17 AMAT components, as mean ticks per off-chip demand read. */
    double amatHostTicks = 0;
    double amatProtocolTicks = 0;
    double amatIndexingTicks = 0;
    double amatSsdDramTicks = 0;
    double amatFlashTicks = 0;
    double amatTotalTicks = 0;

    /** Fig 18 / Fig 20 flash write traffic (pages programmed). */
    std::uint64_t flashHostPrograms = 0;
    std::uint64_t flashGcPrograms = 0;
    std::uint64_t flashReads = 0;
    std::uint64_t gcRuns = 0;
    std::uint64_t compactions = 0;

    /** Table III: mean demand flash read latency (us). */
    double flashReadLatencyUs = 0;

    /** Flash pages programmed per host page written (>= 1 under GC). */
    double writeAmplification = 1.0;
    /** Max - min block erase count at end of run (wear leveling). */
    std::uint32_t wearSpread = 0;

    /** Write log behaviour. */
    std::uint64_t logAppends = 0;
    std::uint64_t logUpdateHits = 0;
    std::uint64_t logOverflowAppends = 0;
    std::uint64_t logIndexBytesPeak = 0;

    /** Migration / AstriFlash. */
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    /** Promotions rejected by per-tenant share caps (QoS; 0 when off). */
    std::uint64_t qosMigrationShareRejects = 0;
    std::uint64_t astriHostHits = 0;
    std::uint64_t astriHostMisses = 0;

    /** Bandwidth (Fig 15): CXL link payload bytes moved. */
    std::uint64_t cxlBytes = 0;

    /** LLC statistics (Table I MPKI). */
    std::uint64_t llcMisses = 0;
    std::uint64_t llcAccesses = 0;

    /** Fig 3: off-chip demand latency distribution. */
    LatencyHistogram offchipLatency;
    /** Fig 5 / Fig 6 locality distributions. */
    RatioHistogram readLocality;
    RatioHistogram writeLocality;

    /** Per-tenant buckets (empty unless the workload is a >=2-tenant
     *  mix, so single-workload reports are byte-unchanged). */
    std::vector<TenantResult> tenants;

    /** Derived helpers. @{ */
    double execMs() const { return ticksToNs(execTime) / 1e6; }
    double
    ipc() const
    {
        return execTime == 0
                   ? 0.0
                   : static_cast<double>(committedInstructions)
                         / (static_cast<double>(execTime)
                            / static_cast<double>(kTicksPerCycle));
    }
    /** Instructions per second of simulated time. */
    double
    throughput() const
    {
        return execTime == 0
                   ? 0.0
                   : static_cast<double>(committedInstructions)
                         / (ticksToNs(execTime) / 1e9);
    }
    /** CXL payload bandwidth in GB/s. */
    double
    cxlBandwidthGbps() const
    {
        return execTime == 0 ? 0.0
                             : static_cast<double>(cxlBytes)
                                   / ticksToNs(execTime);
    }
    double
    llcMpki() const
    {
        return committedInstructions == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(llcMisses)
                         / static_cast<double>(committedInstructions);
    }
    /**
     * Jain fairness index over per-tenant IPC: (sum x)^2 / (n sum x^2),
     * 1.0 when every tenant progresses equally, approaching 1/n as one
     * tenant starves the rest. 0 for non-mix runs (fewer than two
     * tenants).
     */
    double
    fairnessIpc() const
    {
        if (tenants.size() < 2)
            return 0.0;
        double sum = 0.0;
        double sumsq = 0.0;
        for (const TenantResult &t : tenants) {
            const double x = t.ipc();
            sum += x;
            sumsq += x * x;
        }
        return sumsq == 0.0
                   ? 0.0
                   : sum * sum
                         / (static_cast<double>(tenants.size()) * sumsq);
    }
    /** @} */
};

class System;
class MixWorkload;

/**
 * Host physical-address router (the MemoryBackend the uncore sees).
 */
class MemRouter : public MemoryBackend
{
  public:
    /** @p tenants, when non-null, counts host requests per tenant. */
    MemRouter(System &sys, TenantMap *tenants)
        : sys_(sys), tenants_(tenants)
    {}

    void read(const MemRequest &req, Tick when, MemCallback cb) override;
    void write(const MemRequest &req, Tick when) override;

    std::uint64_t hostReads() const { return hostReads_; }
    std::uint64_t hostWrites() const { return hostWrites_; }
    double hostReadTicks() const { return hostReadTicks_; }

  private:
    /** Count one host-DRAM access against @p vaddr's tenant. */
    void noteHost(Addr vaddr, bool is_write);

    System &sys_;
    TenantMap *tenants_;
    std::uint64_t hostReads_ = 0;
    std::uint64_t hostWrites_ = 0;
    double hostReadTicks_ = 0;
};

/**
 * One simulated machine running one workload under one configuration.
 */
class System
{
  public:
    /**
     * Build from a parsed workload spec; common spec args (threads,
     * footprint, instr, seed) override @p params, and the system's
     * thread count follows the constructed workload.
     */
    System(const SimConfig &cfg, const WorkloadSpec &workload,
           const WorkloadParams &params);

    /** Convenience: @p workload_spec is parsed (name or name:k=v,...). */
    System(const SimConfig &cfg, const std::string &workload_spec,
           const WorkloadParams &params);

    /**
     * Bring-your-own-workload constructor (e.g., a TraceLogWorkload or
     * a user-defined generator). @p warm_factory, when given, produces
     * an identically-distributed fresh instance for the SSD cache
     * warmup pass; without it warmup is skipped for custom workloads.
     * @p label overrides the SimResult.workload string (empty = the
     * workload's name()); spec-built systems record the full spec text
     * so parameterized runs stay distinguishable in reports.
     */
    System(const SimConfig &cfg, std::unique_ptr<Workload> workload,
           std::function<std::unique_ptr<Workload>()> warm_factory =
               nullptr,
           std::string label = "");

    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Run to completion (all threads finish and the device drains).
     * @param max_ticks safety limit; the result notes if it was hit.
     */
    SimResult run(Tick max_ticks = kTickMax);

    /** Component access for tests and router. @{ */
    EventQueue &eventQueue() { return eq_; }
    SsdController &ssd() { return *ssd_; }
    MigrationEngine *migration() { return migration_.get(); }
    AstriFlashCache *astriflash() { return astri_.get(); }
    Uncore &uncore() { return *uncore_; }
    Workload &workload() { return *workload_; }
    const SimConfig &config() const { return cfg_; }
    /** @} */

    /** Address routing helpers used by MemRouter. @{ */
    bool isDeviceAddr(Addr vaddr) const;
    Addr toDeviceAddr(Addr vaddr) const;
    /** Inter-socket hop cost for @p core_id's CXL accesses (§IV). */
    Tick numaPenalty(int core_id) const;
    /** @} */

  private:
    friend class MemRouter;

    /** Shared construction tail used by both constructors. */
    void buildSystem(
        const std::function<std::unique_ptr<Workload>()> &warm_factory);

    /** Preload the SSD data cache from a warmup trace pass (§VI-A). */
    void warmupSsd(Workload &warm);

    SimConfig cfg_;
    WorkloadParams params_;
    EventQueue eq_;
    std::unique_ptr<Workload> workload_;
    /** Non-null when workload_ is a mix (tenant labels). */
    MixWorkload *mix_ = nullptr;
    /** Tenant layout and counters; null unless a >= 2-tenant mix. */
    std::unique_ptr<TenantMap> tenants_;
    /** SimResult.workload string; defaults to workload_->name(). */
    std::string workloadLabel_;
    std::unique_ptr<CxlLink> link_;
    std::unique_ptr<DramModel> hostDram_;
    std::unique_ptr<SsdController> ssd_;
    std::unique_ptr<MigrationEngine> migration_;
    std::unique_ptr<AstriFlashCache> astri_;
    std::unique_ptr<MemRouter> router_;
    std::unique_ptr<Uncore> uncore_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::unique_ptr<ThreadContext>> threads_;
    std::unique_ptr<CxlAwareScheduler> sched_;
};

/** Convenience: build + run in one call. */
SimResult runSimulation(const SimConfig &cfg,
                        const std::string &workload_name,
                        const WorkloadParams &params,
                        Tick max_ticks = kTickMax);

} // namespace skybyte

#endif // SKYBYTE_SIM_SYSTEM_H
