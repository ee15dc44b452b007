/**
 * @file
 * Multi-workload co-location: the `mix:` combinator workload.
 *
 * A MixWorkload owns one child workload per tenant and presents them as
 * a single Workload to the System, so heterogeneous tenants share one
 * simulated machine (cores, caches, CXL link, SSD) and contend for the
 * write log, PLB and migration budget — the colocation scenarios the
 * single-workload front end cannot express.
 *
 * Thread assignment: the mix's total thread count is the caller's
 * WorkloadParams::numThreads when any tenant leaves its thread count
 * implicit, or the sum of the explicit `threads=` counts when every
 * tenant pins one. Explicit tenants get exactly their count; the
 * remaining threads are spread round-robin over the implicit tenants
 * (declaration order, first `R mod k` tenants take the extra thread).
 * Global thread ids are then dealt round-robin across the tenants, so
 * tenant lanes interleave on the cores the way co-scheduled processes
 * would. Every tenant must end up with at least one thread; explicit
 * over-subscription is an error.
 *
 * Footprint namespacing: tenant k's shared-data region is placed at a
 * page-aligned offset after tenants 0..k-1, so tenants never alias
 * device pages; the mix footprint is the sum of the (page-rounded)
 * child footprints. Private per-thread regions are rebased from the
 * child's local thread id to the global one. refill(tid, batch)
 * forwards to the owning child and rewrites addresses in place — the
 * per-thread record stream is the child's stream, relocated, so it
 * stays independent of refill granularity.
 *
 * A single-tenant mix is a pass-through (zero offsets, identity thread
 * map): `mix:a=zipf` produces bit-identical simulation results to
 * plain `zipf`, which tests/test_mix_workload.cc pins. Per-tenant stat
 * buckets (SimResult::tenants) are populated only for mixes with two
 * or more tenants — a degenerate mix reports like the plain workload.
 */

#ifndef SKYBYTE_TRACE_MIX_WORKLOAD_H
#define SKYBYTE_TRACE_MIX_WORKLOAD_H

#include <memory>
#include <string>
#include <vector>

#include "trace/workload.h"

namespace skybyte {

/** One tenant of a constructed mix (reporting/classification view). */
struct MixTenant
{
    /** Tenant label from the spec (the report bucket name). */
    std::string name;
    /** Child spec text (canonical form). */
    std::string specText;
    /** Threads assigned to this tenant. */
    int threads = 0;
    /** True when the child spec pinned threads= explicitly. */
    bool explicitThreads = false;
    /** Child footprint rounded up to whole pages (region size). */
    std::uint64_t footprintBytes = 0;
    /** Offset of this tenant's region within the mix device space. */
    Addr deviceBase = 0;
    /**
     * Relative QoS weight (`qos=` spec key, default 1.0). Weights only
     * matter when a QosConfig control is enabled; each control gives
     * the tenant a weight / sum-of-weights share of its resource.
     */
    double qosWeight = 1.0;
};

/** @name Thread-assignment policy (exposed for property tests).
 * @{ */

/**
 * Resolve per-tenant thread counts. @p requested holds each tenant's
 * explicit `threads=` count, or -1 for implicit tenants, in
 * declaration order. Implicit tenants share `total_threads` minus the
 * explicit sum round-robin (first `R mod k` get one extra); when every
 * tenant is explicit the total is their sum and @p total_threads is
 * ignored.
 * @throws std::invalid_argument when the explicit counts over-subscribe
 *         @p total_threads or any tenant would get zero threads.
 */
std::vector<int> mixTenantThreadCounts(int total_threads,
                                       const std::vector<int> &requested);

/**
 * Deal global thread ids round-robin across tenants with the given
 * counts: walk tid 0..sum-1 cycling over tenants in declaration order,
 * skipping tenants whose quota is spent. Returns tid -> tenant index.
 */
std::vector<int> mixThreadAssignment(const std::vector<int> &counts);

/**
 * Smallest total thread count @p spec can be built with (the explicit
 * `threads=` sum plus one per implicit tenant). The config-file front
 * end's parse-time typecheck constructs a throwaway instance at this
 * size, so a valid mix never trips the over-subscription guard there.
 * @throws std::invalid_argument on a malformed mix spec.
 */
int mixMinimumThreads(const WorkloadSpec &spec);
/** @} */

/**
 * One human-readable layout row for a tenant (threads, footprint,
 * device window, child spec), newline-terminated — shared by the trace
 * tools that expand mixes.
 */
std::string describeMixTenant(const MixTenant &tenant);

/**
 * The `mix:` combinator: child workloads behind one Workload facade.
 * Construct through makeWorkload("mix:...", params) in normal use.
 */
class MixWorkload : public Workload
{
  public:
    /**
     * Build children from @p spec (a parsed mix spec). Child
     * WorkloadParams inherit @p params with the tenant's thread count
     * and a per-tenant-decorrelated seed (tenant 0 keeps the caller's
     * seed, so a single-tenant mix reproduces the plain workload).
     * @throws std::invalid_argument on bad tenant specs or thread
     *         assignment errors.
     */
    MixWorkload(const WorkloadSpec &spec, const WorkloadParams &params);

    std::string name() const override { return "mix"; }
    std::uint64_t footprintBytes() const override { return footprint_; }
    int numThreads() const override
    {
        return static_cast<int>(threadTenant_.size());
    }
    std::uint32_t refill(int tid, TraceBatch &batch) override;
    std::uint64_t instructionsEmitted(int tid) const override;

    /** Tenants in declaration order. */
    const std::vector<MixTenant> &tenants() const { return tenants_; }

    /** Tenant owning global thread @p tid. */
    int tenantOfThread(int tid) const
    {
        return threadTenant_[static_cast<std::size_t>(tid)];
    }

    /** Tenant owning device-space offset @p dev (< footprintBytes()). */
    int tenantOfDeviceOffset(Addr dev) const;

    /**
     * Ascending first-byte offsets of each tenant's device region
     * (starts[0] == 0) — the bounds the SSD controller's per-tenant
     * counters classify by.
     */
    std::vector<Addr> tenantDeviceStarts() const;

    /** Per-tenant QoS weights in declaration order (default 1.0). */
    std::vector<double> tenantQosWeights() const;

  private:
    std::vector<std::unique_ptr<Workload>> children_;
    std::vector<MixTenant> tenants_;
    std::vector<int> threadTenant_; ///< global tid -> tenant index
    std::vector<int> threadLocal_;  ///< global tid -> child-local tid
    std::uint64_t footprint_ = 0;
};

} // namespace skybyte

#endif // SKYBYTE_TRACE_MIX_WORKLOAD_H
