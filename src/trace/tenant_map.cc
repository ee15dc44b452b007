#include "trace/tenant_map.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "trace/workload.h"

namespace skybyte {

TenantMap::TenantMap(std::vector<Addr> device_starts, Addr device_end,
                     std::vector<int> thread_tenant,
                     std::vector<double> weights)
    : starts_(std::move(device_starts)), end_(device_end),
      threadTenant_(std::move(thread_tenant)), weights_(std::move(weights))
{
    if (starts_.empty() || starts_.front() != 0
        || !std::is_sorted(starts_.begin(), starts_.end())
        || starts_.back() >= end_) {
        throw std::invalid_argument(
            "tenant regions must start at 0, ascend, and end before "
            "the footprint end");
    }
    for (const double w : weights_)
        weightTotal_ += w;
    if (weights_.size() != starts_.size() || weightTotal_ <= 0.0)
        throw std::invalid_argument(
            "tenant map needs one positive weight per tenant");
    counters_.resize(starts_.size());
}

int
TenantMap::ofDevice(Addr dev) const
{
    if (dev >= end_)
        return -1;
    // starts_[0] == 0, so some start is <= dev: the last such one.
    return static_cast<int>(
        std::upper_bound(starts_.begin(), starts_.end(), dev)
        - starts_.begin() - 1);
}

int
TenantMap::ofVaddr(Addr vaddr) const
{
    if (vaddr >= Workload::kDataBase && vaddr - Workload::kDataBase < end_)
        return ofDevice(vaddr - Workload::kDataBase);
    if (vaddr >= Workload::kPrivateBase) {
        const Addr tid =
            (vaddr - Workload::kPrivateBase) / Workload::kPrivateStride;
        if (tid < threadTenant_.size())
            return threadTenant_[tid];
    }
    return -1;
}

std::vector<std::uint64_t>
TenantMap::splitByWeight(double amount, std::uint64_t floor) const
{
    std::vector<std::uint64_t> shares(weights_.size());
    for (std::size_t t = 0; t < weights_.size(); ++t) {
        shares[t] = std::max(
            floor,
            static_cast<std::uint64_t>(amount * weights_[t] / weightTotal_));
    }
    return shares;
}

} // namespace skybyte
