/**
 * @file
 * Page-mapped flash translation layer with out-of-place updates and
 * greedy (min-valid-cost) garbage collection, plus an optional
 * functional page store (kept only with payload, SimConfig::audit).
 * Logical pages stripe across channels; each channel appends into
 * an open block and GCs locally, with GC operations sharing the channel
 * FIFO so they delay host requests (§II-C).
 *
 * All FTL state is dense. The mapping table and the page store are
 * vectors indexed by host LPN (the page store stays empty without
 * payload), grown to the highest LPN touched
 * (precondition() sizes the mapping once for its footprint). Each
 * channel keeps the LPN held by every page slot in one block-major
 * array, which is the reverse map GC walks. Cold preconditioning pages
 * live at LPNs from kColdLpnBase up and only ever appear in that slot
 * array: no host access can reach them, GC finds them through their
 * slots, and precondition() kills its dead quarter by slot, so they
 * need no mapping entry. At fig16 scale that keeps ~85% of the
 * boot-time page writes out of the mapping table.
 */

#ifndef SKYBYTE_SSD_FTL_H
#define SKYBYTE_SSD_FTL_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "ssd/flash.h"

namespace skybyte {

/** FTL-level statistics. */
struct FtlStats
{
    std::uint64_t hostReads = 0;      ///< data-path page reads
    std::uint64_t hostPrograms = 0;   ///< data-path page programs
    std::uint64_t gcPageMoves = 0;    ///< valid pages relocated by GC
    std::uint64_t gcErases = 0;
    std::uint64_t gcRuns = 0;
};

/**
 * The flash translation layer.
 */
class Ftl
{
  public:
    /**
     * Cold preconditioning data lives at LPNs from here up; host LPNs
     * must stay below it (readPage, writePage and pageData throw
     * std::out_of_range otherwise).
     */
    static constexpr std::uint64_t kColdLpnBase = 1ULL << 40;

    /** @param payload keep a functional page store (pageData) */
    Ftl(const FlashConfig &cfg, EventQueue &eq, std::uint64_t seed,
        bool payload = true);

    /** Its channels' completion hooks point back at it. */
    Ftl(const Ftl &) = delete;
    Ftl &operator=(const Ftl &) = delete;

    /**
     * Read logical page @p lpn at time @p when; @p cb fires with the
     * completion time. The page must be mapped (reads of never-written
     * pages are mapped on demand to a fresh location).
     */
    void readPage(std::uint64_t lpn, Tick when, FlashDoneFn cb);

    /**
     * Program logical page @p lpn (out-of-place) at @p when with new
     * contents @p data (stored only with payload; nullptr without);
     * @p cb fires at completion, before the GC check. May trigger GC.
     */
    void writePage(std::uint64_t lpn, Tick when, const PageData *data,
                   FlashDoneFn cb);

    /** Algorithm 1 delay estimate for a read of @p lpn arriving now. */
    Tick estimateReadDelay(std::uint64_t lpn, Tick now) const;

    /** Is @p lpn's channel currently running GC? */
    bool gcActiveFor(std::uint64_t lpn) const;

    /** Channel object serving @p lpn (for tests/benches). */
    const FlashChannel &channelOf(std::uint64_t lpn) const;

    /**
     * Fill the device so GC will trigger (§VI-A): maps @p footprint_pages
     * host LPNs, re-writes @p rewrite_fraction of them to create dead
     * pages, and pads remaining blocks with cold data until each
     * channel's free-block count sits just above the GC threshold.
     * Throws std::runtime_error when the footprint does not fit.
     */
    void precondition(std::uint64_t footprint_pages,
                      double rewrite_fraction = 0.3);

    /**
     * Functional page contents (zero-filled on first touch). Throws
     * std::logic_error without payload.
     */
    PageData &pageData(std::uint64_t lpn);

    /**
     * Functional single-line peek (0 for a never-written page, and
     * always 0 without payload).
     */
    LineValue peekLine(Addr line_addr) const;

    const FtlStats &stats() const { return stats_; }
    const FlashConfig &config() const { return cfg_; }

    /** Free blocks on channel @p ch (tests). */
    std::uint32_t freeBlocks(std::uint32_t ch) const;

    /** Total programs (host + GC) across all channels. */
    std::uint64_t totalPrograms() const;

    /** Total reads (host + GC) across all channels. */
    std::uint64_t totalReads() const;

    /**
     * Write amplification factor: flash pages programmed per host page
     * written (data path + GC relocation; >= 1 once GC has run).
     */
    double writeAmplification() const;

    /** Lifetime P/E wear across every block of the device. */
    struct WearSummary
    {
        std::uint32_t minErase = 0;
        std::uint32_t maxErase = 0;
        double meanErase = 0;
        /** max - min: the spread wear leveling tries to bound. */
        std::uint32_t spread() const { return maxErase - minErase; }
    };
    WearSummary wearSummary() const;

    /**
     * Consistency check of the mapping state: every block's valid count
     * equals its live slots (0 for a block never written), every valid
     * host mapping points at a slot holding that LPN, erased free
     * blocks hold no live slots, and valid host mappings plus live cold
     * slots sum to the valid counts. Returns "" when consistent, else a
     * description of the first violation.
     */
    std::string audit() const;

  private:
    struct Block
    {
        std::uint32_t validCount = 0;
        std::uint32_t writeCursor = 0; ///< next free page slot
        std::uint32_t eraseCount = 0;  ///< lifetime wear (P/E cycles)
        bool isFree = true;
        bool isOpen = false;
    };

    /** A channel-local page location; slot kUnmapped = no mapping. */
    struct Ppa
    {
        static constexpr std::uint32_t kUnmapped = ~0u;
        std::uint32_t block = 0;
        std::uint32_t slot = kUnmapped;
        bool valid() const { return slot != kUnmapped; }
    };

    struct Channel
    {
        std::unique_ptr<FlashChannel> flash;
        std::vector<Block> blocks;
        /**
         * LPN stored in each page slot, block-major
         * (block * pagesPerBlock + slot); kInvalidLpn when dead/empty.
         * A block's slots are written from its first mapped page on, so
         * an unwritten channel (DRAM-Only) touches none of this array.
         */
        std::unique_ptr<std::uint64_t[]> slotLpn;
        std::vector<std::uint32_t> freeList;
        std::uint32_t openBlock = 0;
        bool gcRunning = false;
        std::uint64_t coldLpnNext = 0;
    };

    static constexpr std::uint64_t kInvalidLpn = ~0ULL;

    std::uint32_t channelIdx(std::uint64_t lpn) const
    {
        return static_cast<std::uint32_t>(lpn % cfg_.channels);
    }

    /** Index of page @p slot of @p block in its channel's slotLpn. */
    std::size_t
    slotIndex(std::uint32_t block, std::uint32_t slot = 0) const
    {
        return static_cast<std::size_t>(block) * cfg_.pagesPerBlock + slot;
    }

    /** Throw std::out_of_range unless @p lpn is a host LPN. */
    static void requireHostLpn(std::uint64_t lpn);

    /**
     * Map/remap @p lpn to a fresh page on its channel (no timing) and
     * return where it landed. Only host LPNs get a mapping entry.
     */
    Ppa mapToOpenBlock(Channel &ch, std::uint64_t lpn);

    /** Invalidate host @p lpn's current mapping if any. */
    void invalidate(std::uint64_t lpn);

    /** Ensure the channel has an open block with space. */
    void ensureOpenBlock(Channel &ch);

    /** Start GC on @p ch if below the free-block threshold. */
    void maybeStartGc(std::uint32_t ch_idx, Tick when);

    /** Run one GC round (victim selection + moves + erase). */
    void gcRound(std::uint32_t ch_idx, Tick when);

    std::uint32_t gcThresholdBlocks() const;

    const FlashConfig cfg_;
    EventQueue &eq_;
    bool payload_;
    Rng rng_;
    std::vector<Channel> channels_;
    /** Host lpn -> its page on channel channelIdx(lpn). */
    std::vector<Ppa> mapping_;
    /**
     * Functional page store by host lpn; null until first touched,
     * and empty without payload. unique_ptrs keep PageData addresses
     * stable across growth (pageData() hands out references).
     */
    std::vector<std::unique_ptr<PageData>> data_;
    FtlStats stats_;
};

} // namespace skybyte

#endif // SKYBYTE_SSD_FTL_H
