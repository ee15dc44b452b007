/**
 * @file
 * DRAM timing + functional model, used for both the host DDR5 (Table II:
 * 8 channels) and the SSD-internal LPDDR4 (2 channels). The default
 * timing is a fixed access latency plus a per-channel bandwidth queue;
 * enabling DramBankTiming switches to a bank/row-buffer model built from
 * Table II's speed grades (row hits pay CL, row misses tRCD+CL, row
 * conflicts tRP+tRCD+CL, banks serialize their own accesses).
 *
 * The functional side is optional: with payload on, a sparse map holds
 * the value of every written line and reads return it; with payload off
 * (the default in a System, see SimConfig::audit) the map stays empty,
 * write() and poke() record nothing and peek() returns 0. Timing is the
 * same either way.
 */

#ifndef SKYBYTE_MEM_DRAM_H
#define SKYBYTE_MEM_DRAM_H

#include <cstdint>
#include <map>
#include <vector>

#include "common/config.h"
#include "common/event_queue.h"
#include "cpu/mem_backend.h"

namespace skybyte {

/**
 * A bandwidth-limited, fixed-latency DRAM device.
 */
class DramModel : public MemoryBackend
{
  public:
    /** @param payload keep line values (peek/poke/read data) */
    DramModel(EventQueue &eq, Tick access_latency, std::uint32_t channels,
              double bytes_per_ns_per_channel,
              const DramBankTiming &bank = {}, bool payload = true);

    DramModel(EventQueue &eq, const HostDramConfig &cfg,
              bool payload = true)
        : DramModel(eq, cfg.accessLatency, cfg.channels,
                    cfg.bytesPerNsPerChannel, cfg.bank, payload)
    {}

    DramModel(EventQueue &eq, const SsdDramConfig &cfg,
              bool payload = true)
        : DramModel(eq, cfg.accessLatency, cfg.channels,
                    cfg.bytesPerNsPerChannel, cfg.bank, payload)
    {}

    /**
     * Timing-only primitive: when is a @p bytes transfer issued at
     * @p when for @p addr complete? Advances the channel queue.
     */
    Tick serviceAt(Tick when, std::uint32_t bytes, Addr addr);

    /** MemoryBackend: asynchronous demand read with functional payload. */
    void read(const MemRequest &req, Tick when, MemCallback cb) override;

    /**
     * Like read(), but returns the completion tick (the time @p cb is
     * scheduled at). The MemRouter uses this to account host-read
     * latency at issue time instead of wrapping the callback — the
     * wrap was the last per-request heap allocation on the host path.
     */
    Tick readAt(const MemRequest &req, Tick when, MemCallback cb);

    /** MemoryBackend: posted write; stores the payload when kept. */
    void write(const MemRequest &req, Tick when) override;

    /** Functional peek (tests / migration copies); 0 without payload. */
    LineValue peek(Addr line_addr) const;

    /** Functional poke (migration copies); no-op without payload. */
    void poke(Addr line_addr, LineValue value);

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }
    /** Total bytes transferred (reads + writes). */
    std::uint64_t bytesTransferred() const { return bytes_; }

    /** Is the bank/row-buffer model active? */
    bool bankModelEnabled() const { return bank_.enabled(); }
    std::uint64_t rowHits() const { return rowHits_; }
    std::uint64_t rowMisses() const { return rowMisses_; }
    std::uint64_t rowConflicts() const { return rowConflicts_; }

  private:
    /** Per-bank row-buffer state (bank model only). */
    struct Bank
    {
        Tick freeAt = 0;
        std::uint64_t openRow = 0;
        bool open = false;
    };

    std::uint32_t channelOf(Addr addr) const;

    /** Bank-model access: activate/precharge timing + bank busy. */
    Tick bankServiceAt(Tick when, std::uint32_t bytes, Addr addr);

    EventQueue &eq_;
    Tick accessLatency_;
    double bytesPerNsPerChannel_;
    DramBankTiming bank_;
    std::vector<Tick> channelFree_;
    std::vector<Bank> banks_; ///< channels x banksPerChannel
    bool payload_;
    /**
     * Sparse functional payload store by line address; empty without
     * payload (SimConfig::audit), so only audit runs probe it.
     */
    std::map<Addr, LineValue> store_;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t rowHits_ = 0;
    std::uint64_t rowMisses_ = 0;
    std::uint64_t rowConflicts_ = 0;
};

} // namespace skybyte

#endif // SKYBYTE_MEM_DRAM_H
