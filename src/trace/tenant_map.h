/**
 * @file
 * The tenant layout of a co-located (`mix:`) run and its per-tenant
 * counters, in one place.
 *
 * A TenantMap is built once by MixWorkload::tenantMap() and owned by
 * the System, which hands it as a nullable pointer to every component
 * that splits work by tenant: the SSD controller (request counters,
 * weighted admission, write-log quotas), the migration engine (share
 * caps), the uncore (off-chip latency) and the host-address router
 * (host DRAM requests). Each of them classifies with ofDevice() or
 * ofVaddr() and increments the owning tenant's TenantCounters in
 * place, at the same sample sites as the aggregate statistics, so the
 * tenant counters partition the aggregates exactly. A null map (every
 * plain workload and every single-tenant mix) disables all of it.
 */

#ifndef SKYBYTE_TRACE_TENANT_MAP_H
#define SKYBYTE_TRACE_TENANT_MAP_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace skybyte {

/**
 * One tenant's counters. Pure accounting: counting never changes
 * simulated behaviour.
 */
struct TenantCounters
{
    std::uint64_t hostReads = 0;
    std::uint64_t hostWrites = 0;
    std::uint64_t ssdReadHits = 0; ///< log + cache hits
    std::uint64_t ssdReadMisses = 0;
    std::uint64_t ssdWrites = 0;
    /** Write-log appends for this tenant's pages (log pressure). */
    std::uint64_t logAppends = 0;
    /** Flash page arrivals for this tenant's pages (incl. prefetch). */
    std::uint64_t flashPageReads = 0;
    /** Summed flash read latency of those arrivals (ticks). */
    double flashReadTicks = 0;
    /** Off-chip demand-load latency of this tenant's lines. */
    LatencyHistogram offchipLatency;
    /** @name QoS enforcement effects (zero with QoS off). @{ */
    std::uint64_t qosDelayedReads = 0;  ///< reads held by admission
    std::uint64_t qosDelayedWrites = 0; ///< writes held by admission
    std::uint64_t qosThrottleTicks = 0; ///< total admission hold time
    std::uint64_t qosLogOverQuota = 0;  ///< writes arriving past quota
    /** @} */
};

/**
 * Which tenant owns an address or a thread, the tenants' QoS weights,
 * and one counter record per tenant.
 */
class TenantMap
{
  public:
    /**
     * @param device_starts first device-byte offset of each tenant's
     *        region, ascending, starting at 0; tenant i owns
     *        [starts[i], starts[i+1]), the last one up to @p device_end
     * @param device_end the mix footprint: offsets at or past it belong
     *        to no tenant (sequential prefetches run off the end)
     * @param thread_tenant global thread id -> tenant index
     * @param weights relative QoS weight of each tenant (`qos=`)
     * @throws std::invalid_argument on a malformed layout
     */
    TenantMap(std::vector<Addr> device_starts, Addr device_end,
              std::vector<int> thread_tenant, std::vector<double> weights);

    std::size_t size() const { return starts_.size(); }

    /** Tenant owning device offset @p dev, or -1 at or past the end. */
    int ofDevice(Addr dev) const;

    /**
     * Tenant owning host virtual address @p vaddr: device lines by
     * their region, thread-private lines by the thread's tenant; -1
     * for any other address.
     */
    int ofVaddr(Addr vaddr) const;

    /** Tenant owning global thread @p tid. */
    int
    ofThread(int tid) const
    {
        return threadTenant_[static_cast<std::size_t>(tid)];
    }

    /**
     * Split @p amount across the tenants by weight share:
     * max(@p floor, amount * weight / sum-of-weights), truncated.
     */
    std::vector<std::uint64_t> splitByWeight(double amount,
                                             std::uint64_t floor) const;

    /** Counters of tenant @p t, or nullptr for -1 (no tenant). */
    TenantCounters *
    counters(int t)
    {
        return t < 0 ? nullptr : &counters_[static_cast<std::size_t>(t)];
    }

  private:
    std::vector<Addr> starts_;
    Addr end_;
    std::vector<int> threadTenant_;
    std::vector<double> weights_;
    double weightTotal_ = 0.0;
    std::vector<TenantCounters> counters_;
};

} // namespace skybyte

#endif // SKYBYTE_TRACE_TENANT_MAP_H
