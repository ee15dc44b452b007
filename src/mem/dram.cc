#include "mem/dram.h"

#include <algorithm>

namespace skybyte {

DramModel::DramModel(EventQueue &eq, Tick access_latency,
                     std::uint32_t channels,
                     double bytes_per_ns_per_channel,
                     const DramBankTiming &bank, bool payload)
    : eq_(eq), accessLatency_(access_latency),
      bytesPerNsPerChannel_(bytes_per_ns_per_channel), bank_(bank),
      channelFree_(std::max<std::uint32_t>(channels, 1), 0),
      payload_(payload)
{
    if (bank_.enabled())
        banks_.resize(channelFree_.size() * bank_.banksPerChannel);
}

std::uint32_t
DramModel::channelOf(Addr addr) const
{
    // Hash the line index so page-aligned bursts spread across channels
    // (plain modulo would pin all 4 KB-aligned transfers to channel 0).
    std::uint64_t x = addr / kCachelineBytes;
    x ^= x >> 13;
    x *= 0x9e3779b97f4a7c15ULL;
    x ^= x >> 31;
    return static_cast<std::uint32_t>(x % channelFree_.size());
}

Tick
DramModel::serviceAt(Tick when, std::uint32_t bytes, Addr addr)
{
    if (bank_.enabled())
        return bankServiceAt(when, bytes, addr);
    Tick &free_at = channelFree_[channelOf(addr)];
    const Tick start = std::max(when, free_at);
    const auto xfer = static_cast<Tick>(
        static_cast<double>(bytes) / bytesPerNsPerChannel_
        * static_cast<double>(kTicksPerNs));
    free_at = start + xfer;
    bytes_ += bytes;
    return start + xfer + accessLatency_;
}

Tick
DramModel::bankServiceAt(Tick when, std::uint32_t bytes, Addr addr)
{
    // Rows are contiguous in the address space; spread *rows* (not
    // lines) across channels and banks so row locality survives the
    // interleaving.
    const std::uint64_t row = addr / bank_.rowBytes;
    std::uint64_t x = row;
    x ^= x >> 13;
    x *= 0x9e3779b97f4a7c15ULL;
    x ^= x >> 31;
    const auto channel =
        static_cast<std::uint32_t>(x % channelFree_.size());
    const auto bank_idx = static_cast<std::uint32_t>(
        (x / channelFree_.size()) % bank_.banksPerChannel);
    Bank &bank = banks_[channel * bank_.banksPerChannel + bank_idx];

    // Core access latency by row-buffer state (open-page policy).
    Tick core;
    if (bank.open && bank.openRow == row) {
        core = bank_.tCas;
        rowHits_++;
    } else if (!bank.open) {
        core = bank_.tRcd + bank_.tCas;
        rowMisses_++;
    } else {
        core = bank_.tRp + bank_.tRcd + bank_.tCas;
        rowConflicts_++;
    }

    const Tick cmd = std::max(when, bank.freeAt);
    Tick &chan_free = channelFree_[channel];
    const Tick data_start = std::max(cmd + core, chan_free);
    const auto xfer = static_cast<Tick>(
        static_cast<double>(bytes) / bytesPerNsPerChannel_
        * static_cast<double>(kTicksPerNs));
    chan_free = data_start + xfer;
    bank.freeAt = data_start + xfer;
    bank.open = true;
    bank.openRow = row;
    bytes_ += bytes;
    return data_start + xfer + bank_.controllerLatency;
}

Tick
DramModel::readAt(const MemRequest &req, Tick when, MemCallback cb)
{
    reads_++;
    const Tick done = serviceAt(when, kCachelineBytes, req.lineAddr);
    MemResponse resp;
    resp.kind = MemResponseKind::Data;
    resp.lineAddr = req.lineAddr;
    resp.value = peek(req.lineAddr);
    eq_.schedule(done, [cb = std::move(cb), resp]() mutable { cb(resp); });
    return done;
}

void
DramModel::read(const MemRequest &req, Tick when, MemCallback cb)
{
    readAt(req, when, std::move(cb));
}

void
DramModel::write(const MemRequest &req, Tick when)
{
    writes_++;
    serviceAt(when, kCachelineBytes, req.lineAddr);
    poke(req.lineAddr, req.value);
}

LineValue
DramModel::peek(Addr line_addr) const
{
    if (!payload_)
        return 0;
    const auto it = store_.find(line_addr);
    return it == store_.end() ? 0 : it->second;
}

void
DramModel::poke(Addr line_addr, LineValue value)
{
    if (payload_)
        store_[line_addr] = value;
}

} // namespace skybyte
