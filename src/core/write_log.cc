#include "core/write_log.h"

#include <algorithm>
#include <cassert>

namespace skybyte {

LogPageTable::LogPageTable(std::uint32_t initial_entries, double max_load)
    : maxLoad_(max_load)
{
    reset(initial_entries);
}

void
LogPageTable::reset(std::uint32_t initial_entries)
{
    std::uint32_t cap = 1;
    while (cap < std::max(initial_entries, 1u))
        cap <<= 1;
    slots_.assign(cap, kEmpty);
    count_ = 0;
}

void
LogPageTable::grow()
{
    std::vector<std::uint32_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, kEmpty);
    count_ = 0;
    for (std::uint32_t packed : old) {
        if (packed != kEmpty)
            put(packed >> 26, packed & kLogOffMask);
    }
}

void
LogPageTable::put(std::uint32_t line_off, std::uint32_t log_off)
{
    assert(line_off < kLinesPerPage);
    const std::uint32_t mask = capacity() - 1;
    std::uint32_t idx = (line_off * 0x9e37u) & mask;
    for (;;) {
        std::uint32_t &slot = slots_[idx];
        if (slot == kEmpty) {
            slot = (line_off << 26) | (log_off & kLogOffMask);
            count_++;
            if (static_cast<double>(count_)
                > maxLoad_ * static_cast<double>(capacity())) {
                grow();
            }
            return;
        }
        if ((slot >> 26) == line_off) {
            slot = (line_off << 26) | (log_off & kLogOffMask);
            return;
        }
        idx = (idx + 1) & mask;
    }
}

std::optional<std::uint32_t>
LogPageTable::get(std::uint32_t line_off) const
{
    const std::uint32_t mask = capacity() - 1;
    std::uint32_t idx = (line_off * 0x9e37u) & mask;
    for (std::uint32_t probes = 0; probes <= mask; ++probes) {
        const std::uint32_t slot = slots_[idx];
        if (slot == kEmpty)
            return std::nullopt;
        if ((slot >> 26) == line_off)
            return slot & kLogOffMask;
        idx = (idx + 1) & mask;
    }
    return std::nullopt;
}

WriteLogBuffer::WriteLogBuffer(std::uint64_t capacity_bytes,
                               std::uint32_t initial_entries,
                               double max_load)
    : capacityEntries_(std::max<std::uint64_t>(
          capacity_bytes / kCachelineBytes, 4)),
      initialEntries_(initial_entries), maxLoad_(max_load)
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
    const std::uint64_t lpa = pageNumber(line_addr);
    const std::uint32_t off = lineInPage(line_addr);
    const auto log_off = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back({line_addr, value});
    if (lpa >= slotOf_.size())
        slotOf_.resize(lpa + 1);
    const bool inserted = slotOf_[lpa] == 0;
    if (inserted) {
        if (livePages_ == pages_.size())
            pages_.push_back({0, LogPageTable(initialEntries_, maxLoad_)});
        IndexedPage &page = pages_[livePages_];
        page.lpa = lpa;
        page.table.reset(initialEntries_);
        slotOf_[lpa] = static_cast<std::uint32_t>(++livePages_);
    }
    LogPageTable &table = pages_[slotOf_[lpa] - 1].table;
    // Incremental accounting: a new first-level entry costs 16 B plus
    // its fresh second-level table; put() may double the table.
    if (inserted)
        indexBytes_ += 16;
    const std::uint32_t cap_before = inserted ? 0 : table.capacity();
    const bool superseded = !inserted && table.get(off).has_value();
    table.put(off, log_off);
    indexBytes_ +=
        static_cast<std::uint64_t>(table.capacity() - cap_before) * 4;
    return superseded;
}

std::optional<LineValue>
WriteLogBuffer::lookup(Addr line_addr) const
{
    return valueAt(pageNumber(line_addr), lineInPage(line_addr));
}

std::optional<LineValue>
WriteLogBuffer::valueAt(std::uint64_t lpa, std::uint32_t line_off) const
{
    const LogPageTable *table = tableOf(lpa);
    if (table == nullptr)
        return std::nullopt;
    auto log_off = table->get(line_off);
    if (!log_off)
        return std::nullopt;
    return entries_[*log_off].value;
}

std::uint64_t
WriteLogBuffer::mergePageInto(std::uint64_t lpa, PageData *data) const
{
    const LogPageTable *table = tableOf(lpa);
    if (table == nullptr)
        return 0;
    std::uint64_t mask = 0;
    table->forEach([&](std::uint32_t off, std::uint32_t log_off) {
        if (data != nullptr)
            (*data)[off] = entries_[log_off].value;
        mask |= 1ULL << off;
    });
    return mask;
}

std::uint32_t
WriteLogBuffer::invalidatePage(std::uint64_t lpa)
{
    const LogPageTable *table = tableOf(lpa);
    if (table == nullptr)
        return 0;
    const std::uint32_t dropped = table->count();
    indexBytes_ -=
        16 + static_cast<std::uint64_t>(table->capacity()) * 4;
    // The last indexed page takes the dropped page's place; the dropped
    // table becomes the first spare.
    const std::size_t pos = slotOf_[lpa] - 1;
    slotOf_[lpa] = 0;
    if (pos != --livePages_) {
        std::swap(pages_[pos], pages_[livePages_]);
        slotOf_[pages_[pos].lpa] = static_cast<std::uint32_t>(pos + 1);
    }
    return dropped;
}

std::uint64_t
WriteLogBuffer::indexBytesRecomputed() const
{
    // 16 B per first-level entry + 4 B per allocated second-level slot.
    std::uint64_t bytes = livePages_ * 16;
    forEachPage([&bytes](std::uint64_t, const LogPageTable &table) {
        bytes += static_cast<std::uint64_t>(table.capacity()) * 4;
    });
    return bytes;
}

void
WriteLogBuffer::clear()
{
    entries_.clear();
    forEachPage([this](std::uint64_t lpa, const LogPageTable &) {
        slotOf_[lpa] = 0;
    });
    livePages_ = 0;
    indexBytes_ = 0;
    std::fill(tenantEntries_.begin(), tenantEntries_.end(), 0);
}

WriteLog::WriteLog(std::uint64_t capacity_bytes,
                   std::uint32_t initial_entries, double max_load)
    : active_(capacity_bytes, initial_entries, max_load),
      standby_(capacity_bytes, initial_entries, max_load)
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
