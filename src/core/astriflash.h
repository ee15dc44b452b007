/**
 * @file
 * AstriFlash-CXL baseline (§VI-H, [23]): the host DRAM acts as a
 * hardware-managed set-associative cache of the SSD at 4 KB page
 * granularity. A host-DRAM miss triggers a cheap user-level thread
 * switch (modelled as a DelayHint whose switch overhead the AstriFlash
 * preset configures to ~500 ns) while the page is fetched from the SSD;
 * dirty victim pages are written back to the SSD whole. The SSD is
 * treated as a black box accessed only at page granularity — no write
 * log integration, exactly as the paper argues.
 *
 * The fill path mirrors the SSD controller's request-path layout:
 * in-flight fills are slab records with intrusive FIFO chains of
 * readers/buffered writes, found through a dense per-page table.
 */

#ifndef SKYBYTE_CORE_ASTRIFLASH_H
#define SKYBYTE_CORE_ASTRIFLASH_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/event_queue.h"
#include "common/slab.h"
#include "core/page_cache.h"
#include "core/ssd_controller.h"
#include "cpu/mem_backend.h"
#include "mem/dram.h"

namespace skybyte {

/** AstriFlash statistics. */
struct AstriFlashStats
{
    std::uint64_t hostHits = 0;
    std::uint64_t hostMisses = 0;
    std::uint64_t pageFills = 0;
    std::uint64_t dirtyWritebacks = 0;
    std::uint64_t userSwitchHints = 0;
};

/**
 * Host-side page cache front-end for the SSD.
 */
class AstriFlashCache
{
  public:
    AstriFlashCache(const SimConfig &cfg, EventQueue &eq,
                    SsdController &ssd, DramModel &host_dram);
    ~AstriFlashCache();

    AstriFlashCache(const AstriFlashCache &) = delete;
    AstriFlashCache &operator=(const AstriFlashCache &) = delete;

    /** Demand read of a device line through the host page cache. */
    void read(Addr dev_line_addr, Tick when, MemCallback cb);

    /** Posted write of a device line through the host page cache. */
    void write(Addr dev_line_addr, LineValue value, Tick when);

    /**
     * Functional peek (host copy wins while resident); 0 without
     * payload (SimConfig::audit).
     */
    LineValue peekLine(Addr dev_line_addr);

    const AstriFlashStats &stats() const { return astriStats_; }

    /** Page fills in flight (0 once a run has drained). */
    std::size_t
    pendingFills() const
    {
        return pending_.size()
               - std::count(pending_.begin(), pending_.end(), nullptr);
    }

  private:
    /** One read waiting on an in-flight fill (intrusive FIFO). */
    struct LineWaiter
    {
        LineWaiter *next = nullptr;
        std::uint32_t off = 0;
        Tick issuedAt = 0;
        MemCallback cb;
    };

    /** One write-allocate line buffered until the fill lands. */
    struct BufferedWrite
    {
        BufferedWrite *next = nullptr;
        std::uint32_t off = 0;
        LineValue value = 0;
    };

    /** One in-flight page fill (slab-allocated, address-stable). */
    struct PendingFill
    {
        IntrusiveFifo<LineWaiter> readers;
        IntrusiveFifo<BufferedWrite> writes;
    };

    /** In-flight fill of @p lpn, or nullptr. */
    PendingFill *
    fillOf(std::uint64_t lpn) const
    {
        return lpn < pending_.size() ? pending_[lpn] : nullptr;
    }

    PendingFill *startFill(std::uint64_t lpn, Tick when);
    void addReader(PendingFill &fill, std::uint32_t off, Tick issued_at,
                   MemCallback cb);
    void addWrite(PendingFill &fill, std::uint32_t off, LineValue value);
    void releaseFill(PendingFill *fill);
    void respond(LineWaiter &w, std::uint64_t lpn, LineValue value,
                 Tick t_page);

    const SimConfig &cfg_;
    EventQueue &eq_;
    SsdController &ssd_;
    DramModel &hostDram_;
    PageCache tags_;
    /** In-flight fills by lpn; nullptr when none. */
    std::vector<PendingFill *> pending_;
    Slab<PendingFill> fillSlab_;
    Slab<LineWaiter> readerSlab_;
    Slab<BufferedWrite> writeSlab_;
    AstriFlashStats astriStats_;
};

} // namespace skybyte

#endif // SKYBYTE_CORE_ASTRIFLASH_H
