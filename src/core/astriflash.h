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
 * In-flight fills live in a PageFetchTable (core/page_fetch.h), the
 * same table the SSD controller keeps its flash fetches in: reads and
 * write-allocate lines wait on the fill in FIFO chains.
 */

#ifndef SKYBYTE_CORE_ASTRIFLASH_H
#define SKYBYTE_CORE_ASTRIFLASH_H

#include <cstddef>
#include <cstdint>

#include "common/config.h"
#include "common/event_queue.h"
#include "core/page_cache.h"
#include "core/page_fetch.h"
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
    std::size_t pendingFills() const { return fills_.inFlight(); }

  private:
    PageFetch *startFill(std::uint64_t lpn, Tick when);
    void respond(PageFetch::LineReader &r, std::uint64_t lpn,
                 LineValue value, Tick t_page);

    const SimConfig &cfg_;
    EventQueue &eq_;
    SsdController &ssd_;
    DramModel &hostDram_;
    PageCache tags_;
    PageFetchTable fills_;
    AstriFlashStats astriStats_;
};

} // namespace skybyte

#endif // SKYBYTE_CORE_ASTRIFLASH_H
