/**
 * @file
 * In-flight page fetches: the one table behind the SSD controller's
 * flash fetches into its data cache (§III-B, Figure 11) and
 * AstriFlash-CXL's page fills into host DRAM (§VI-H). While a 4 KB page
 * is on its way, line reads, buffered line writes and page reads wait
 * on it.
 *
 * Each in-flight page is one recycled slab record (common/slab.h)
 * carrying three intrusive FIFO chains; the table is a dense vector
 * indexed by page, grown to the highest page started (a probe past the
 * end reads as absent and grows nothing). The owner replays the chains
 * when the page arrives, in its own order across chains; within a
 * chain, replay follows append order, which the event-queue seq
 * tie-break depends on.
 */

#ifndef SKYBYTE_CORE_PAGE_FETCH_H
#define SKYBYTE_CORE_PAGE_FETCH_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/slab.h"
#include "common/types.h"
#include "cpu/mem_backend.h"

namespace skybyte {

/**
 * Page-read completion callback (page-granular host interface), fired
 * with the delivery time. A consumer keeping payload reads the page with
 * SsdController::snapshotPage() then; it must not write the page while
 * the read is in flight (AstriFlash buffers such writes).
 */
using PageReadFn = InlineFunction<void(Tick), 32>;

/** One page in flight and the requests waiting on it. */
struct PageFetch
{
    /** A line read answered once the page lands. */
    struct LineReader
    {
        LineReader *next = nullptr;
        std::uint32_t off = 0;
        Tick at = 0; ///< when the read started waiting
        MemCallback cb;
    };

    /** A write-allocate line applied once the page lands. */
    struct LineWrite
    {
        LineWrite *next = nullptr;
        std::uint32_t off = 0;
        LineValue value = 0;
    };

    /** A whole-page read answered once the page lands. */
    struct PageReader
    {
        PageReader *next = nullptr;
        PageReadFn cb;
    };

    Tick startedAt = 0;
    Tick expectedDone = 0;
    IntrusiveFifo<LineReader> readers;
    IntrusiveFifo<LineWrite> writes;
    IntrusiveFifo<PageReader> pageReaders;
};

/**
 * Page -> in-flight fetch. Records still live at destruction (runs cut
 * off mid-fetch) are released, destroying their waiting callbacks.
 */
class PageFetchTable
{
  public:
    PageFetchTable() = default;

    ~PageFetchTable()
    {
        for (PageFetch *pf : byPage_) {
            if (pf != nullptr)
                release(pf);
        }
    }

    PageFetchTable(const PageFetchTable &) = delete;
    PageFetchTable &operator=(const PageFetchTable &) = delete;

    /** In-flight fetch of @p lpn, or nullptr. */
    PageFetch *
    find(std::uint64_t lpn) const
    {
        return lpn < byPage_.size() ? byPage_[lpn] : nullptr;
    }

    /** Register a fetch of @p lpn, which has none in flight. */
    PageFetch *
    start(std::uint64_t lpn)
    {
        assert(find(lpn) == nullptr);
        if (lpn >= byPage_.size())
            byPage_.resize(lpn + 1);
        PageFetch *pf = fetchSlab_.alloc();
        byPage_[lpn] = pf;
        inFlight_++;
        return pf;
    }

    /**
     * Unregister the fetch of @p lpn as its page arrives. The caller
     * replays the chains, then hands the record to release().
     */
    PageFetch *
    take(std::uint64_t lpn)
    {
        PageFetch *pf = find(lpn);
        assert(pf != nullptr); // each fetch completes once
        byPage_[lpn] = nullptr;
        inFlight_--;
        return pf;
    }

    /** Destroy @p pf and its chains (drops unreplayed callbacks). */
    void
    release(PageFetch *pf)
    {
        pf->readers.drainTo(readerSlab_);
        pf->writes.drainTo(writeSlab_);
        pf->pageReaders.drainTo(pageReaderSlab_);
        fetchSlab_.release(pf);
    }

    void
    addReader(PageFetch &pf, std::uint32_t off, Tick at, MemCallback cb)
    {
        PageFetch::LineReader *r = readerSlab_.alloc();
        r->off = off;
        r->at = at;
        r->cb = std::move(cb);
        pf.readers.append(r);
    }

    void
    addWrite(PageFetch &pf, std::uint32_t off, LineValue value)
    {
        PageFetch::LineWrite *w = writeSlab_.alloc();
        w->off = off;
        w->value = value;
        pf.writes.append(w);
    }

    void
    addPageReader(PageFetch &pf, PageReadFn cb)
    {
        PageFetch::PageReader *r = pageReaderSlab_.alloc();
        r->cb = std::move(cb);
        pf.pageReaders.append(r);
    }

    /** Fetches registered and not yet taken (0 once a run drained). */
    std::size_t inFlight() const { return inFlight_; }

  private:
    std::vector<PageFetch *> byPage_;
    std::size_t inFlight_ = 0;
    Slab<PageFetch> fetchSlab_;
    Slab<PageFetch::LineReader> readerSlab_;
    Slab<PageFetch::LineWrite> writeSlab_;
    Slab<PageFetch::PageReader> pageReaderSlab_;
};

} // namespace skybyte

#endif // SKYBYTE_CORE_PAGE_FETCH_H
