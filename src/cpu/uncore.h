/**
 * @file
 * Shared uncore: the L3/LLC, its MSHR file with cross-core coalescing
 * (§III-A C1 — one CXL.mem request may be associated with instructions
 * from several cores), and the dispatch of LLC misses to the off-chip
 * backend. Also records the off-chip latency distribution for Figure 3.
 *
 * The LLC MSHR file is CacheConfig::mshrs fixed slots. Each in-flight
 * line holds one slot, whose loads wait in an intrusive FIFO chain
 * through their MissStatus records, so a new missed line allocates
 * nothing. The backend callback carries the slot index, so a response
 * finds its slot without a lookup; a load finds a line to coalesce
 * onto by scanning the compact array of in-flight lines, as the L1
 * MshrFile does (a few dozen lines are in flight at a time: the cores'
 * L1 MSHRs bound them).
 */

#ifndef SKYBYTE_CPU_UNCORE_H
#define SKYBYTE_CPU_UNCORE_H

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/event_queue.h"
#include "common/slab.h"
#include "common/stats.h"
#include "cpu/cache.h"
#include "cpu/mem_backend.h"

namespace skybyte {

class Core;
class TenantMap;

/**
 * Status of one in-flight load miss as seen by a core's ROB. Shared
 * between the ROB entry and the uncore so a response (or SkyByte-Delay
 * hint) can complete or mark the entry even after a squash.
 */
struct MissStatus
{
    Addr lineAddr = 0;
    Core *owner = nullptr;
    bool done = false;      ///< data arrived
    bool hinted = false;    ///< SkyByte-Delay received (§III-A C2)
    bool orphaned = false;  ///< squashed; nobody will retire it
    bool l1MshrHeld = false;
    Tick issuedAt = 0;
    Tick doneAt = kTickMax;
    LineValue value = 0; ///< functional payload of the data response
    /** Intrusive refcount managed by MissRef (single-threaded). */
    std::uint32_t refs = 0;
    /** Next load on the same LLC miss (the chain holds a reference). */
    MissStatus *nextWaiter = nullptr;
};

/**
 * Intrusive refcounted handle to a slab-backed MissStatus: the
 * shared_ptr it replaced cost one heap allocation (control block +
 * record) per LLC-bound load on the request path. Records come from
 * Uncore's slab (stable addresses, recycled storage) and return to it
 * when the last handle drops; the count is a plain integer because the
 * whole core/uncore request path is single-threaded event code.
 */
class MissRef
{
  public:
    MissRef() = default;

    /** Adopt @p status (its refcount must already count this handle). */
    MissRef(MissStatus *status, Slab<MissStatus> *home)
        : ptr_(status), home_(home)
    {}

    MissRef(const MissRef &other) : ptr_(other.ptr_), home_(other.home_)
    {
        if (ptr_ != nullptr)
            ++ptr_->refs;
    }

    MissRef(MissRef &&other) noexcept
        : ptr_(other.ptr_), home_(other.home_)
    {
        other.ptr_ = nullptr;
    }

    MissRef &
    operator=(const MissRef &other)
    {
        MissRef copy(other);
        swap(copy);
        return *this;
    }

    MissRef &
    operator=(MissRef &&other) noexcept
    {
        swap(other);
        other.reset();
        return *this;
    }

    ~MissRef() { reset(); }

    /** Drop this handle; releases the record on the last one. */
    void
    reset()
    {
        if (ptr_ != nullptr && --ptr_->refs == 0)
            home_->release(ptr_);
        ptr_ = nullptr;
    }

    void
    swap(MissRef &other) noexcept
    {
        std::swap(ptr_, other.ptr_);
        std::swap(home_, other.home_);
    }

    MissStatus *operator->() const { return ptr_; }
    MissStatus &operator*() const { return *ptr_; }
    explicit operator bool() const { return ptr_ != nullptr; }

  private:
    MissStatus *ptr_ = nullptr;
    Slab<MissStatus> *home_ = nullptr;
};

/** Result of presenting an LLC-bound load to the uncore. */
enum class UncoreLoadResult
{
    HitL3,      ///< completes after the L3 hit latency
    Pending,    ///< miss in flight; MissStatus will be completed
    MshrBlocked ///< LLC MSHRs exhausted; retry after a release
};

/**
 * The shared L3 + LLC MSHRs + backend port.
 */
class Uncore
{
  public:
    /**
     * @param payload the L3 keeps line values (SimConfig::audit)
     * @param tenants non-null in co-located runs: each off-chip sample
     *        is also recorded in the owning tenant's offchipLatency
     *        (classified by host virtual line address; lines of no
     *        tenant land only in the aggregate)
     */
    Uncore(const CpuConfig &cfg, EventQueue &eq, MemoryBackend &backend,
           bool payload = true, TenantMap *tenants = nullptr);

    /**
     * Fresh slab-backed miss record for an LLC-bound load (the one
     * sanctioned allocation site; the request path itself stays
     * allocation-free at steady state).
     */
    MissRef
    makeMiss()
    {
        MissStatus *status = missSlab_.alloc();
        status->refs = 1;
        return MissRef(status, &missSlab_);
    }

    /**
     * Present a demand load that missed L1/L2 at time @p when.
     * On Pending, @p status is registered and will receive done/hinted.
     */
    UncoreLoadResult load(const MissRef &status, Tick when);

    /** Dirty line evicted from a core's L2: fill into L3. */
    void writebackToL3(Addr line_addr, LineValue value, Tick when);

    /** Register a core for MSHR-free wakeups. */
    void addCore(Core *core) { cores_.push_back(core); }

    const SetAssocCache &l3c() const { return l3_; }

    std::uint64_t llcMisses() const { return llcMisses_; }
    std::uint64_t llcCoalesced() const { return llcCoalesced_; }
    std::uint64_t llcMshrBlocks() const { return llcMshrBlocks_; }

    /** LLC MSHRs in use: lines in flight (0 once a run has drained). */
    std::size_t linesInFlight() const { return liveLines_.size(); }

    /** Off-chip (post-LLC) demand-load latency distribution (Fig 3). */
    const LatencyHistogram &offchipLatency() const { return offchip_; }

  private:
    /** One LLC MSHR: the loads waiting on its in-flight line. */
    struct MshrSlot
    {
        /** FIFO chain through MissStatus::nextWaiter. */
        MissStatus *head = nullptr;
        MissStatus *tail = nullptr;
        std::uint32_t livePos = 0; ///< index of its line in liveLines_
    };

    /** Chain @p status (taking a reference) at the tail of @p slot. */
    void addWaiter(MshrSlot &slot, MissStatus &status);

    /** The response for the line held by MSHR @p slot. */
    void onResponse(std::uint32_t slot, const MemResponse &resp);
    void wakeBlockedCores();

    EventQueue &eq_;
    MemoryBackend &backend_;
    SetAssocCache l3_;
    /**
     * Records still chained at teardown (timed-out runs) need no
     * release: the slab frees its chunks, and a MissStatus owns nothing.
     */
    Slab<MissStatus> missSlab_;
    static_assert(std::is_trivially_destructible_v<MissStatus>);
    /** The LLC MSHR file (CacheConfig::mshrs slots). */
    std::vector<MshrSlot> slots_;
    /** Lines in flight, compact and in no particular order. */
    std::vector<Addr> liveLines_;
    /**
     * A permutation of the slot indices: slotOrder_[i] holds
     * liveLines_[i] for i < liveLines_.size(); the rest are free.
     */
    std::vector<std::uint32_t> slotOrder_;
    std::vector<Core *> cores_;
    LatencyHistogram offchip_;
    TenantMap *tenants_;
    std::uint64_t llcMisses_ = 0;
    std::uint64_t llcCoalesced_ = 0;
    std::uint64_t llcMshrBlocks_ = 0;
};

} // namespace skybyte

#endif // SKYBYTE_CPU_UNCORE_H
