#include "core/write_log.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace skybyte {

WriteLogBuffer::WriteLogBuffer(std::uint64_t capacity_bytes, bool payload)
    : capacityEntries_(std::max<std::uint64_t>(
          capacity_bytes / kCachelineBytes, 4)),
      payload_(payload)
{}

void
WriteLogBuffer::setTenantCount(std::size_t n)
{
    tenantEntries_.assign(n, 0);
}

bool
WriteLogBuffer::append(Addr line_addr, LineValue value, int tenant)
{
    if (tenant >= 0
        && static_cast<std::size_t>(tenant) < tenantEntries_.size())
        tenantEntries_[static_cast<std::size_t>(tenant)]++;
    appended_++;
    if (payload_)
        values_[lineAlign(line_addr)] = value;
    const std::uint64_t lpa = pageNumber(line_addr);
    const std::uint64_t bit = 1ULL << lineInPage(line_addr);
    if (lpa >= slotOf_.size())
        slotOf_.resize(lpa + 1);
    if (slotOf_[lpa] == 0) {
        pages_.push_back({lpa, bit});
        slotOf_[lpa] = static_cast<std::uint32_t>(pages_.size());
        indexBytes_ += pageIndexBytes(1);
        return false;
    }
    std::uint64_t &mask = pages_[slotOf_[lpa] - 1].mask;
    if ((mask & bit) != 0)
        return true;
    const auto lines = static_cast<std::uint32_t>(std::popcount(mask));
    indexBytes_ += pageIndexBytes(lines + 1) - pageIndexBytes(lines);
    mask |= bit;
    return false;
}

std::optional<LineValue>
WriteLogBuffer::lookup(Addr line_addr) const
{
    if ((maskOf(pageNumber(line_addr)) >> lineInPage(line_addr) & 1) == 0)
        return std::nullopt;
    return payload_ ? values_.at(lineAlign(line_addr)) : 0;
}

std::uint64_t
WriteLogBuffer::mergePageInto(std::uint64_t lpa, PageData *data) const
{
    const std::uint64_t mask = maskOf(lpa);
    if (data == nullptr)
        return mask;
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
        const auto off = static_cast<std::uint32_t>(std::countr_zero(m));
        (*data)[off] = payload_ ? values_.at(lpa * kPageBytes
                                             + off * kCachelineBytes)
                                : 0;
    }
    return mask;
}

std::uint32_t
WriteLogBuffer::invalidatePage(std::uint64_t lpa)
{
    const std::uint64_t mask = maskOf(lpa);
    if (mask == 0)
        return 0;
    const auto dropped = static_cast<std::uint32_t>(std::popcount(mask));
    indexBytes_ -= pageIndexBytes(dropped);
    if (payload_) {
        const Addr base = lpa * kPageBytes;
        values_.erase(values_.lower_bound(base),
                      values_.lower_bound(base + kPageBytes));
    }
    // The last indexed page takes the dropped page's place.
    const std::size_t pos = slotOf_[lpa] - 1;
    slotOf_[lpa] = 0;
    if (pos != pages_.size() - 1) {
        pages_[pos] = pages_.back();
        slotOf_[pages_[pos].lpa] = static_cast<std::uint32_t>(pos + 1);
    }
    pages_.pop_back();
    return dropped;
}

std::uint64_t
WriteLogBuffer::indexBytesRecomputed() const
{
    std::uint64_t bytes = 0;
    forEachPage([&bytes](std::uint64_t, std::uint64_t mask) {
        bytes += pageIndexBytes(
            static_cast<std::uint32_t>(std::popcount(mask)));
    });
    return bytes;
}

void
WriteLogBuffer::clear()
{
    appended_ = 0;
    for (const IndexedPage &page : pages_)
        slotOf_[page.lpa] = 0;
    pages_.clear();
    values_.clear();
    indexBytes_ = 0;
    std::fill(tenantEntries_.begin(), tenantEntries_.end(), 0);
}

WriteLog::WriteLog(std::uint64_t capacity_bytes, bool payload)
    : active_(capacity_bytes, payload), standby_(capacity_bytes, payload)
{}

void
WriteLog::append(Addr line_addr, LineValue value, int tenant)
{
    if (active_.full())
        stats_.overflowAppends++;
    if (active_.append(line_addr, value, tenant))
        stats_.updateHits++;
    stats_.appends++;
    stats_.indexBytesPeak = std::max(stats_.indexBytesPeak, indexBytes());
}

void
WriteLog::setTenantQuotas(std::vector<std::uint64_t> quotas)
{
    tenantQuotas_ = std::move(quotas);
    active_.setTenantCount(tenantQuotas_.size());
    standby_.setTenantCount(tenantQuotas_.size());
}

std::optional<LineValue>
WriteLog::lookup(Addr line_addr) const
{
    if (auto v = active_.lookup(line_addr))
        return v;
    if (drainInProgress_)
        return standby_.lookup(line_addr);
    return std::nullopt;
}

void
WriteLog::mergePageInto(std::uint64_t lpa, PageData &data) const
{
    if (drainInProgress_)
        standby_.mergePageInto(lpa, &data);
    active_.mergePageInto(lpa, &data); // newest wins
}

WriteLogBuffer &
WriteLog::beginCompaction()
{
    assert(!drainInProgress_);
    std::swap(active_, standby_);
    drainInProgress_ = true;
    return standby_;
}

void
WriteLog::finishCompaction()
{
    standby_.clear();
    drainInProgress_ = false;
}

void
WriteLog::invalidatePage(std::uint64_t lpa)
{
    active_.invalidatePage(lpa);
    if (drainInProgress_)
        standby_.invalidatePage(lpa);
}

} // namespace skybyte
