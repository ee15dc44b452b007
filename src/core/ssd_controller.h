/**
 * @file
 * The CXL-SSD controller (§III-B, Figure 11): serves CXL.mem reads and
 * writes out of the SSD DRAM (write log + page-granular data cache),
 * fetches pages from flash through the FTL on misses, decides when to
 * send SkyByte-Delay hints (Algorithm 1), runs background log compaction
 * (Figure 13), and exposes the page-granular interface used by
 * AstriFlash and page migration.
 *
 * In Base-CSSD mode (write log disabled) it behaves like the
 * state-of-the-art CXL-SSD of [32],[62]: page-granular caching with
 * sequential prefetch, write-allocate read-modify-write on write misses,
 * and dirty-page writebacks on eviction.
 *
 * Request-path design: the steady state is allocation-free. In-flight
 * fetches are slab records (common/slab.h) carrying intrusive FIFO
 * chains of waiter records instead of per-fetch vectors; the fetch
 * table and the hot-page access counters are dense vectors indexed by
 * device page, grown to the highest page inserted (a probe past the
 * end reads as absent and grows nothing); and completion callbacks are
 * move-only InlineFunctions (common/inline_function.h) constructed in
 * place in waiter records and event-queue slots, never cloned.
 *
 * Line values are carried only with SimConfig::audit. Without it the
 * data cache and FTL keep no page contents, reads answer value 0, and
 * page reads deliver no page; every timing and statistic is the same.
 */

#ifndef SKYBYTE_CORE_SSD_CONTROLLER_H
#define SKYBYTE_CORE_SSD_CONTROLLER_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/config.h"
#include "common/event_queue.h"
#include "common/inline_function.h"
#include "common/slab.h"
#include "common/stats.h"
#include "cpu/mem_backend.h"
#include "core/page_cache.h"
#include "core/write_log.h"
#include "cxl/cxl.h"
#include "mem/dram.h"
#include "ssd/ftl.h"

namespace skybyte {

class TenantMap;

/**
 * Page-read completion callback (page-granular host interface), fired
 * with the delivery time. A consumer keeping payload reads the page with
 * snapshotPage() then; it must not write the page while the read is in
 * flight (AstriFlash buffers such writes).
 */
using PageReadFn = InlineFunction<void(Tick), 32>;

/** Controller statistics (feeds Figs 5/6, 16, 17, 18 and Table III). */
struct SsdStats
{
    std::uint64_t readHitsLog = 0;
    std::uint64_t readHitsCache = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writes = 0;
    std::uint64_t delayHintsSent = 0;
    std::uint64_t rmwFetches = 0;     ///< Base-CSSD write-miss page fetches
    std::uint64_t prefetches = 0;
    std::uint64_t dirtyEvictions = 0; ///< Base-CSSD dirty page writebacks
    std::uint64_t compactionPagesFlushed = 0;
    std::uint64_t compactionFlashReads = 0;
    Tick compactionTicksTotal = 0;
    std::uint64_t compactionRuns = 0;
    std::uint64_t pagePromotionsSignalled = 0;

    /** AMAT component sums over completed demand reads (ticks). */
    std::uint64_t amatReads = 0;
    double protocolTicks = 0;
    double indexingTicks = 0;
    double ssdDramTicks = 0;
    double flashTicks = 0;

    /** Flash read latency observed by demand fetches (Table III). */
    LatencyHistogram flashReadLatency;
    /** Fraction of lines touched per page leaving the cache (Fig 5). */
    RatioHistogram readLocality;
    /** Fraction of dirty lines per page programmed to flash (Fig 6). */
    RatioHistogram writeLocality;
};

/**
 * The memory-semantic SSD device.
 */
class SsdController
{
  public:
    /**
     * @p tenants, when non-null (co-located runs), receives the
     * per-tenant request counters and arms the QoS controls of
     * cfg.qos, each dividing its resource by tenant weight share: with
     * QosConfig::weightedAdmission each tenant gets max(1,
     * creditsPerEpoch x share) admission credits per epochTicks window,
     * and requests beyond the budget are admitted at the start of the
     * first epoch with spare credit; with QosConfig::writeLogQuota each
     * tenant's live write-log entries are capped at max(1, capacity x
     * share), and over-quota writes pay a one-credit admission
     * surcharge.
     */
    SsdController(const SimConfig &cfg, EventQueue &eq, CxlLink &link,
                  TenantMap *tenants = nullptr);
    ~SsdController();

    SsdController(const SsdController &) = delete;
    SsdController &operator=(const SsdController &) = delete;

    /**
     * CXL.mem MemRd for a device-relative line address, sent by the host
     * at @p when. @p cb fires host-side with Data or DelayHint.
     */
    void read(Addr dev_line_addr, Tick when, MemCallback cb);

    /** CXL.mem MemWr (posted) for a device-relative line address. */
    void write(Addr dev_line_addr, LineValue value, Tick when);

    /** Page-granular host read (AstriFlash page fills). */
    void readPageToHost(std::uint64_t lpn, Tick when, PageReadFn cb);

    /**
     * Page-granular host write (AstriFlash eviction / demotion) of
     * @p data, which is nullptr without payload.
     */
    void writePageFromHost(std::uint64_t lpn, const PageData *data,
                           Tick when);

    /** Is @p lpn resident in the data cache (migration precondition)? */
    bool isPageCached(std::uint64_t lpn) const;

    /**
     * Merged functional view of a page (cache/flash + log overlay); all
     * zeros without payload.
     */
    void snapshotPage(std::uint64_t lpn, PageData &out);

    /** Convenience by-value form (tests). */
    PageData
    snapshotPage(std::uint64_t lpn)
    {
        PageData out;
        snapshotPage(lpn, out);
        return out;
    }

    /** Migration completed: drop the page from SSD DRAM (§III-C). */
    void dropMigratedPage(std::uint64_t lpn);

    /**
     * Hook invoked when a cached page crosses the hot threshold
     * (§III-C). Returns true if the migration engine accepted the page;
     * on rejection (PLB full, budget full) the counter stays eligible
     * so a later access can retry.
     */
    void
    setHotPageHook(std::function<bool(std::uint64_t, Tick)> hook)
    {
        hotPageHook_ = std::move(hook);
    }

    /**
     * Functional single-line peek through log, cache, then flash; 0
     * without payload.
     */
    LineValue peekLine(Addr dev_line_addr);

    /**
     * Boot-time warm fill of the data cache (no timing, no flash ops):
     * used by the warmup pass the paper applies before measurement.
     */
    void warmFill(std::uint64_t lpn);

    Ftl &ftl() { return ftl_; }
    const Ftl &ftlc() const { return ftl_; }
    PageCache &cache() { return cache_; }
    WriteLog *writeLog() { return log_.get(); }
    const SsdStats &stats() const { return stats_; }
    DramModel &dram() { return dram_; }

    /** Flash page fetches in flight (0 once a run has drained). */
    std::size_t
    fetchesInFlight() const
    {
        return fetches_.size()
               - std::count(fetches_.begin(), fetches_.end(), nullptr);
    }

  private:
    /** One line read waiting on an in-flight fetch (intrusive FIFO). */
    struct Waiter
    {
        Waiter *next = nullptr;
        std::uint32_t lineOff = 0;
        Tick readyAt = 0; ///< time the request finished indexing
        MemCallback cb;
    };

    /** One page read waiting on an in-flight fetch (intrusive FIFO). */
    struct PageWaiter
    {
        PageWaiter *next = nullptr;
        Tick readyAt = 0;
        PageReadFn cb;
    };

    /** Base-CSSD write-allocate line buffered until the page arrives. */
    struct PendingWrite
    {
        PendingWrite *next = nullptr;
        std::uint32_t off = 0;
        LineValue value = 0;
    };

    /**
     * One in-flight flash fetch. Slab-allocated; the three waiter
     * FIFOs replay in arrival order on completion (the event-queue
     * seq tie-break depends on it).
     */
    struct PendingFetch
    {
        Tick expectedDone = 0;
        Tick startedAt = 0;
        bool prefetch = false;
        IntrusiveFifo<Waiter> waiters;
        IntrusiveFifo<PageWaiter> pageWaiters;
        IntrusiveFifo<PendingWrite> pendingWrites;
    };

    bool logEnabled() const { return log_ != nullptr; }
    Tick indexLatency() const;

    /** In-flight fetch of @p lpn, or nullptr. */
    PendingFetch *
    fetchOf(std::uint64_t lpn) const
    {
        return lpn < fetches_.size() ? fetches_[lpn] : nullptr;
    }

    /**
     * Start the flash fetch of @p lpn, which has none in flight, at
     * device time @p t.
     */
    PendingFetch *startFetch(std::uint64_t lpn, Tick t, bool prefetch);

    /** Append a line waiter to @p pf (FIFO). */
    void addWaiter(PendingFetch &pf, std::uint32_t off, Tick ready_at,
                   MemCallback cb);

    /** Append a page waiter to @p pf (FIFO). */
    void addPageWaiter(PendingFetch &pf, Tick ready_at, PageReadFn cb);

    /** Append a buffered write-allocate line to @p pf (FIFO). */
    void addPendingWrite(PendingFetch &pf, std::uint32_t off,
                         LineValue value);

    /** Destroy a fetch record and its chains (drops callbacks). */
    void releaseFetch(PendingFetch *pf);

    void onPageArrived(std::uint64_t lpn, Tick done);

    /** Apply log overlay onto @p data for page @p lpn. */
    void mergeLogInto(std::uint64_t lpn, PageData &data);

    /**
     * Handle a page evicted from the data cache. @p victim_data is the
     * evicted payload when @p ev.dirty and the cache carries payload
     * (nullptr otherwise).
     */
    void handleEviction(const PageEvict &ev, const PageData *victim_data,
                        Tick when);

    /** Answer one line waiter with @p value (consumes its callback). */
    void respondLine(Waiter &w, std::uint64_t lpn, Tick t_page,
                     LineValue value);

    /** Send the SkyByte-Delay NDR back to the host. */
    void sendDelayHint(Tick t, MemCallback cb);

    /** Count an access for hot-page tracking. */
    void touchForPromotion(std::uint64_t lpn, Tick now);

    /** Algorithm 1 + GC check: should this miss trigger a switch? */
    bool shouldHint(std::uint64_t lpn, Tick est) const;

    void maybeStartCompaction(Tick now);
    void issueCompactionJob(std::uint32_t ch, Tick when);
    /**
     * Program compacted page @p lpa: @p cached is its merged cache copy,
     * or nullptr (uncached: merge over the flash copy; or no payload).
     */
    void flushCompacted(std::uint32_t ch, std::uint64_t lpa, Tick when,
                        const PageData *cached);

    /**
     * Deterministic epoch token bucket: spend @p cost credits of
     * @p tenant and return the admission time for a request arriving at
     * @p t_arr. Identity when weighted admission is off or the address
     * belongs to no tenant.
     */
    Tick admit(int tenant, Tick t_arr, std::uint32_t cost = 1);

    const SimConfig &cfg_;
    EventQueue &eq_;
    CxlLink &link_;
    DramModel dram_;
    Ftl ftl_;
    PageCache cache_;
    std::unique_ptr<WriteLog> log_;

    /** In-flight fetch table: lpn -> slab record, nullptr when idle. */
    std::vector<PendingFetch *> fetches_;
    Slab<PendingFetch> fetchSlab_;
    Slab<Waiter> waiterSlab_;
    Slab<PageWaiter> pageWaiterSlab_;
    Slab<PendingWrite> pendingWriteSlab_;

    std::function<bool(std::uint64_t, Tick)> hotPageHook_;
    /** Per-page access counters for §III-C hot-page detection. */
    std::vector<std::uint32_t> accessCounts_;

    /** Compaction state: per-channel pending page jobs. */
    std::vector<std::deque<std::uint64_t>> compactJobs_;
    std::uint32_t compactOutstanding_ = 0;
    Tick compactStart_ = 0;
    bool compacting_ = false;

    SsdStats stats_;

    /** Tenant layout and counters (nullptr = no tenants). */
    TenantMap *tenants_;

    /** Per-tenant admission token-bucket state (empty = admission off;
     *  see admit()). */
    struct AdmissionState
    {
        std::uint64_t epoch = 0;  ///< last epoch with credit spent
        std::uint32_t used = 0;   ///< credits spent in that epoch
        std::uint32_t budget = 0; ///< credits granted per epoch
    };
    Tick qosEpochTicks_ = 1;
    std::vector<AdmissionState> admission_;

    /** Request/response header payload sizes on the link (bytes). */
    static constexpr std::uint32_t kHeaderBytes = 16;
};

} // namespace skybyte

#endif // SKYBYTE_CORE_SSD_CONTROLLER_H
