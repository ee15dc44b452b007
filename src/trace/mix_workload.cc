#include "trace/mix_workload.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace skybyte {

namespace {

/**
 * Per-tenant seed decorrelation stride (golden-ratio odd constant).
 * Tenant 0 keeps the caller's seed unchanged so a single-tenant mix is
 * bit-identical to the plain workload; later tenants are shifted far
 * apart so two identically-parameterized tenants do not replay the
 * same RNG streams. An explicit seed= in a child spec still overrides.
 */
constexpr std::uint64_t kTenantSeedStride = 0x9e3779b97f4a7c15ULL;

std::uint64_t
pageRoundUp(std::uint64_t bytes)
{
    return (bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
}

/**
 * Peek each tenant's explicit threads= count (-1 when implicit).
 * makeWorkload re-applies the same arg onto the child params later, so
 * the peek and the construction always agree.
 */
std::vector<int>
requestedThreads(const std::vector<MixTenantSpec> &tenant_specs)
{
    std::vector<int> requested;
    requested.reserve(tenant_specs.size());
    for (const MixTenantSpec &ts : tenant_specs) {
        if (!ts.spec.has("threads")) {
            requested.push_back(-1);
            continue;
        }
        const std::uint64_t threads = parseUnsigned(
            ts.spec.raw("threads"),
            "mix tenant " + ts.tenant + " arg threads");
        if (threads == 0 || threads > 65536) {
            throw std::invalid_argument(
                "mix tenant " + ts.tenant
                + " arg threads must be in [1, 65536], got "
                + std::to_string(threads));
        }
        requested.push_back(static_cast<int>(threads));
    }
    return requested;
}

} // namespace

std::vector<int>
mixTenantThreadCounts(int total_threads,
                      const std::vector<int> &requested)
{
    if (requested.empty())
        throw std::invalid_argument("mix needs at least one tenant");
    int explicit_sum = 0;
    int implicit = 0;
    for (const int r : requested) {
        if (r < 0)
            implicit++;
        else
            explicit_sum += r;
    }
    std::vector<int> counts = requested;
    if (implicit == 0) {
        // Every tenant pinned threads=: the mix defines its own total,
        // like a plain spec's threads= overriding WorkloadParams.
        return counts;
    }
    const int remainder = total_threads - explicit_sum;
    if (remainder < implicit) {
        throw std::invalid_argument(
            "mix thread over-subscription: explicit threads= take "
            + std::to_string(explicit_sum) + " of "
            + std::to_string(total_threads) + ", leaving "
            + std::to_string(remainder > 0 ? remainder : 0) + " for "
            + std::to_string(implicit) + " implicit tenant(s)");
    }
    // Round-robin the remainder: every implicit tenant gets the base
    // share, the first remainder-mod-k (declaration order) one extra.
    const int base = remainder / implicit;
    int extra = remainder % implicit;
    for (int &c : counts) {
        if (c < 0) {
            c = base + (extra > 0 ? 1 : 0);
            if (extra > 0)
                extra--;
        }
    }
    return counts;
}

std::vector<int>
mixThreadAssignment(const std::vector<int> &counts)
{
    const int total = std::accumulate(counts.begin(), counts.end(), 0);
    std::vector<int> remaining = counts;
    std::vector<int> assignment(static_cast<std::size_t>(total));
    std::size_t cursor = 0;
    const std::size_t k = counts.size();
    for (int tid = 0; tid < total; ++tid) {
        while (remaining[cursor % k] == 0)
            cursor++;
        assignment[static_cast<std::size_t>(tid)] =
            static_cast<int>(cursor % k);
        remaining[cursor % k]--;
        cursor++;
    }
    return assignment;
}

std::string
describeMixTenant(const MixTenant &tenant)
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "tenant %-12s %2d thread%s  %8.1f MB @ +0x%llx  %s\n",
                  tenant.name.c_str(), tenant.threads,
                  tenant.threads == 1 ? " " : "s",
                  static_cast<double>(tenant.footprintBytes)
                      / (1024.0 * 1024.0),
                  static_cast<unsigned long long>(tenant.deviceBase),
                  tenant.specText.c_str());
    return line;
}

int
mixMinimumThreads(const WorkloadSpec &spec)
{
    int minimum = 0;
    for (const int r : requestedThreads(parseMixTenants(spec)))
        minimum += r < 0 ? 1 : r;
    return minimum;
}

MixWorkload::MixWorkload(const WorkloadSpec &spec,
                         const WorkloadParams &params)
{
    const std::vector<MixTenantSpec> tenant_specs = parseMixTenants(spec);
    const std::vector<int> requested = requestedThreads(tenant_specs);
    const std::vector<int> counts =
        mixTenantThreadCounts(std::max(params.numThreads, 1), requested);

    threadTenant_ = mixThreadAssignment(counts);
    threadLocal_.resize(threadTenant_.size());
    std::vector<int> next_local(counts.size(), 0);
    for (std::size_t tid = 0; tid < threadTenant_.size(); ++tid) {
        threadLocal_[tid] =
            next_local[static_cast<std::size_t>(threadTenant_[tid])]++;
    }

    for (std::size_t i = 0; i < tenant_specs.size(); ++i) {
        const MixTenantSpec &ts = tenant_specs[i];
        WorkloadParams child_params = params;
        child_params.numThreads = counts[i];
        child_params.seed =
            params.seed + kTenantSeedStride * static_cast<std::uint64_t>(i);
        // qos= is a mix-level key: peel it off the spec the child is
        // constructed from (generator factories reject unknown keys),
        // but keep the original text for reporting.
        WorkloadSpec child_spec = ts.spec;
        double qos_weight = 1.0;
        if (child_spec.has("qos")) {
            qos_weight = parseQosWeight(child_spec.raw("qos"),
                                        "mix tenant " + ts.tenant);
            child_spec.args.erase(
                std::remove_if(
                    child_spec.args.begin(), child_spec.args.end(),
                    [](const std::pair<std::string, std::string> &kv) {
                        return kv.first == "qos";
                    }),
                child_spec.args.end());
        }
        std::unique_ptr<Workload> child;
        try {
            child = makeWorkload(child_spec, child_params);
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument("mix tenant " + ts.tenant + ": "
                                        + e.what());
        }
        MixTenant tenant;
        tenant.name = ts.tenant;
        tenant.specText = ts.spec.text();
        tenant.qosWeight = qos_weight;
        tenant.threads = counts[i];
        tenant.explicitThreads = requested[i] >= 0;
        tenant.footprintBytes = pageRoundUp(child->footprintBytes());
        tenant.deviceBase = footprint_;
        footprint_ += tenant.footprintBytes;
        tenants_.push_back(std::move(tenant));
        children_.push_back(std::move(child));
    }
}

std::uint32_t
MixWorkload::refill(int tid, TraceBatch &batch)
{
    const std::size_t t =
        static_cast<std::size_t>(threadTenant_[static_cast<std::size_t>(tid)]);
    const int local = threadLocal_[static_cast<std::size_t>(tid)];
    const std::uint32_t n = children_[t]->refill(local, batch);
    const MixTenant &tenant = tenants_[t];

    // Relocate the child's addresses into the mix's namespaces: shared
    // data shifts by the tenant's device base, the child-local private
    // region rebases to the global thread's. A single-tenant mix (and
    // any tenant-0 thread whose global id equals its local id) rewrites
    // nothing, so records pass through bit-identically.
    const Addr data_lo = kDataBase;
    const Addr data_hi = kDataBase + children_[t]->footprintBytes();
    const Addr priv_lo =
        kPrivateBase + static_cast<Addr>(local) * kPrivateStride;
    const Addr priv_dst =
        kPrivateBase + static_cast<Addr>(tid) * kPrivateStride;
    for (std::uint32_t i = 0; i < n; ++i) {
        Addr &va = batch.records[i].vaddr;
        if (va >= data_lo && va < data_hi) {
            va += tenant.deviceBase;
        } else if (va >= priv_lo && va < priv_lo + kPrivateStride) {
            va = priv_dst + (va - priv_lo);
        }
    }
    return n;
}

std::uint64_t
MixWorkload::instructionsEmitted(int tid) const
{
    const std::size_t t =
        static_cast<std::size_t>(threadTenant_[static_cast<std::size_t>(tid)]);
    return children_[t]->instructionsEmitted(
        threadLocal_[static_cast<std::size_t>(tid)]);
}

std::unique_ptr<TenantMap>
MixWorkload::tenantMap() const
{
    if (tenants_.size() < 2)
        return nullptr;
    std::vector<Addr> starts;
    std::vector<double> weights;
    for (const MixTenant &tenant : tenants_) {
        starts.push_back(tenant.deviceBase);
        weights.push_back(tenant.qosWeight);
    }
    return std::make_unique<TenantMap>(std::move(starts), footprint_,
                                       threadTenant_, std::move(weights));
}

} // namespace skybyte
