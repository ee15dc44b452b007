/**
 * @file
 * Simulator configuration: every knob from the paper's Table II / Table IV
 * plus the SkyByte policy switches exposed by the original artifact
 * (promotion_enable, write_log_enable, device_triggered_ctx_swt,
 * cs_threshold, ssd_cache_size_byte, host_dram_size_byte, t_policy).
 *
 * Preset builders produce the evaluation configurations: Base-CSSD,
 * SkyByte-{C,P,W,CP,WP,Full}, DRAM-Only, SkyByte-{CT,WCT} (TPP migration)
 * and AstriFlash-CXL.
 */

#ifndef SKYBYTE_COMMON_CONFIG_H
#define SKYBYTE_COMMON_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/event_queue.h"
#include "common/types.h"

namespace skybyte {

/** Thread scheduling policies explored in §III-A. */
enum class SchedPolicy { RoundRobin, Random, Cfs };

/** Page-migration mechanisms compared in §VI-H. */
enum class MigrationMechanism {
    None,       ///< no promotion to host DRAM
    SkyByte,    ///< per-page access counting in the SSD controller (§III-C)
    Tpp,        ///< TPP-style periodic sampling + LRU lists [43]
    AstriFlash, ///< host DRAM as HW-managed set-associative page cache [23]
};

/** NAND flash chip families from Table IV. */
enum class NandType { ULL, ULL2, SLC, MLC };

/**
 * Host page-reclaim policy used to pick demotion victims (§III-C cites
 * Linux's active/inactive lists; LruScan is the simpler exact LRU: the
 * head of a recency list kept sorted by last use).
 */
enum class ReclaimPolicy { LruScan, ActiveInactive };

/** Per-core cache parameters. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t mshrs = 8;
    Tick hitLatency = nsToTicks(1.0);
};

/** CPU complex parameters (Table II). */
struct CpuConfig
{
    int numCores = 8;
    /** > 0: sizes each thread's window ring at construction. */
    std::uint32_t robEntries = 256;
    CacheConfig l1d{32 * 1024, 8, 8, nsToTicks(1.0)};
    CacheConfig l2{512 * 1024, 32, 128, nsToTicks(3.5)};
    CacheConfig llc{16ULL * 1024 * 1024, 16, 1024, nsToTicks(10.0)};
    /** Free a thread's MSHR entries when its loads squash (§III-A). */
    bool freeMshrOnSquash = true;
};

/**
 * Bank-level DRAM timing, derived from the Table II speed grades
 * ("DDR5 4800 MHz 36-38-38", "LPDDR4 3200 MHz 16-18-18"). With
 * banksPerChannel == 0 the device falls back to the fixed-latency
 * model; the presets below translate the CL-tRCD-tRP triples into
 * row-hit / row-miss / row-conflict latencies.
 */
struct DramBankTiming
{
    std::uint32_t banksPerChannel = 0; ///< 0 disables the bank model
    std::uint32_t rowBytes = 8192;
    Tick tRcd = 0; ///< activate -> column command
    Tick tRp = 0;  ///< precharge
    Tick tCas = 0; ///< column access (CL)
    /** Fixed controller/queueing overhead added to every access. */
    Tick controllerLatency = nsToTicks(20.0);

    bool enabled() const { return banksPerChannel > 0; }
};

/** DDR5-4800 36-38-38 (Table II host DRAM): CL/tRCD/tRP at 2400 MHz. */
DramBankTiming ddr5BankTiming();

/** LPDDR4-3200 16-18-18 (Table II SSD DRAM): CL/tRCD/tRP at 1600 MHz. */
DramBankTiming lpddr4BankTiming();

/** Host DDR5 DRAM (Table II: DDR5-4800, 8 channels). */
struct HostDramConfig
{
    Tick accessLatency = nsToTicks(70.0);
    std::uint32_t channels = 8;
    /** DDR5-4800, 64-bit channel: 4800 MT/s x 8 B = 38.4 GB/s. */
    double bytesPerNsPerChannel = 38.4;
    /** Optional bank/row-buffer model (see DramBankTiming). */
    DramBankTiming bank{};
};

/** SSD-internal LPDDR4 DRAM (Table II: LPDDR4-3200, 2 channels). */
struct SsdDramConfig
{
    Tick accessLatency = nsToTicks(100.0);
    std::uint32_t channels = 2;
    /** LPDDR4-3200, 64-bit channel: 3200 MT/s x 8 B = 25.6 GB/s. */
    double bytesPerNsPerChannel = 25.6;
    /** Optional bank/row-buffer model (see DramBankTiming). */
    DramBankTiming bank{};
};

/** CXL link (Table II: CXL over PCIe 5.0 x4). */
struct CxlConfig
{
    Tick protocolLatency = nsToTicks(40.0);
    double bytesPerNs = 16.0; ///< 16 GB/s
};

/** NAND timing (Table IV). */
struct NandTiming
{
    Tick readLatency = usToTicks(3.0);     ///< tR
    Tick programLatency = usToTicks(100.0);///< tProg
    Tick eraseLatency = usToTicks(1000.0); ///< tBERS
};

/** Table IV presets. */
NandTiming nandTiming(NandType type);

/** Human-readable NAND type name. */
std::string nandTypeName(NandType type);

/**
 * Flash geometry. Paper default: 16 channels x 8 chips x 8 dies x 1 plane,
 * 128 blocks/plane, 256 pages/block, 4 KB pages = 128 GB. The default here
 * is a 1/64-scale geometry with identical channel structure (see DESIGN.md
 * §1); `paperScale()` restores the full geometry.
 */
struct FlashConfig
{
    std::uint32_t channels = 16;
    std::uint32_t chipsPerChannel = 8;
    std::uint32_t diesPerChip = 8;
    std::uint32_t planesPerDie = 1;
    std::uint32_t blocksPerPlane = 2;   ///< paper: 128 (1/64 scale)
    std::uint32_t pagesPerBlock = 256;
    NandTiming timing{};
    /** Channel bus transfer time for one 4 KB page (~3.4 GB/s ONFI 5). */
    Tick pageTransferTime = nsToTicks(4096.0 / 3.4);
    /** GC starts when free blocks drop below this fraction per channel. */
    double gcFreeBlockThreshold = 0.20;
    /** GC stops once free fraction recovers above this level. */
    double gcRestoreThreshold = 0.25;
    /**
     * Wear-aware block allocation: open the least-erased free block
     * instead of the most recently freed one, bounding the P/E spread
     * across blocks (dynamic wear leveling).
     */
    bool wearAwareAllocation = false;

    std::uint64_t pagesPerChannel() const
    {
        return static_cast<std::uint64_t>(chipsPerChannel) * diesPerChip
               * planesPerDie * blocksPerPlane * pagesPerBlock;
    }
    std::uint64_t totalPages() const
    {
        return pagesPerChannel() * channels;
    }
    std::uint64_t totalBytes() const { return totalPages() * kPageBytes; }
    std::uint64_t blocksPerChannel() const
    {
        return static_cast<std::uint64_t>(chipsPerChannel) * diesPerChip
               * planesPerDie * blocksPerPlane;
    }
};

/** SkyByte / baseline policy switches (artifact §G knobs). */
struct PolicyConfig
{
    bool writeLogEnable = false;         ///< write_log_enable
    bool promotionEnable = false;        ///< promotion_enable
    bool deviceTriggeredCtxSwitch = false; ///< device_triggered_ctx_swt
    Tick csThreshold = usToTicks(2.0);   ///< cs_threshold
    Tick ctxSwitchOverhead = usToTicks(2.0);
    SchedPolicy schedPolicy = SchedPolicy::Cfs; ///< t_policy
    MigrationMechanism migration = MigrationMechanism::None;
    /** Page access count that makes a page a promotion candidate. */
    std::uint32_t hotPageThreshold = 32;
    /** AstriFlash user-level switch overhead (cheaper than OS switch). */
    Tick astriSwitchOverhead = nsToTicks(500.0);
};

/**
 * SSD DRAM layout. Paper default: 512 MB total = 64 MB write log + 448 MB
 * data cache; the 1/64-scale default keeps the 1:7 split.
 */
struct SsdCacheConfig
{
    std::uint64_t writeLogBytes = 1ULL * 1024 * 1024;  ///< paper: 64 MB
    std::uint64_t dataCacheBytes = 7ULL * 1024 * 1024; ///< paper: 448 MB
    std::uint32_t dataCacheWays = 16; ///< ssd_cache_way
    Tick writeLogIndexLatency = nsToTicks(72.0);  ///< FPGA-measured (§V)
    Tick dataCacheIndexLatency = nsToTicks(49.0); ///< FPGA-measured (§V)
    /** Base-CSSD sequential next-page prefetch on cache miss [32],[62]. */
    bool baseCssdPrefetch = true;
};

/**
 * NUMA topology (§IV): the CXL-SSD appears as a CPU-less node attached
 * to a home socket; accesses from other sockets pay the inter-socket
 * hop. Cores are split into contiguous socket blocks. The context
 * switch threshold is shared by all nodes, as the paper argues.
 */
struct NumaConfig
{
    std::uint32_t sockets = 1;
    Tick interSocketLatency = nsToTicks(100.0);
    std::uint32_t ssdHomeSocket = 0;
};

/** Host-side memory budget for promoted pages. */
struct HostMemConfig
{
    /** host_dram_size_byte: max bytes of promoted pages (paper: 2 GB). */
    std::uint64_t promotedBytesMax = 32ULL * 1024 * 1024; ///< 1/64 scale
    /** Promotion Look-aside Buffer entries (§III-C). */
    std::uint32_t plbEntries = 64;
    /** One-way MSI-X interrupt cost for migration requests. */
    Tick msixLatency = nsToTicks(900.0);
    /** Per-core TLB shootdown cost charged when a migration completes. */
    Tick tlbShootdownCost = nsToTicks(400.0);
    /**
     * Data-persistence support (§IV): the first pinnedDeviceBytes of the
     * device address space are pinned to the CXL-SSD — never promoted to
     * (volatile) host DRAM, so clwb-flushed lines are durable once they
     * reach the battery-backed SSD DRAM.
     */
    std::uint64_t pinnedDeviceBytes = 0;
    /**
     * Migration granularity (§IV): 0 migrates plain 4 KB pages; set to
     * 2 MB to migrate huge pages chunk-by-chunk through the two-level
     * PLB. Must be a power-of-two multiple of kPageBytes.
     */
    std::uint64_t hugePageBytes = 0;
    /**
     * Cost of the custom NVMe command that tells the SSD to drop all
     * 4 KB chunks of a migrated huge page from its DRAM caches (§IV).
     */
    Tick nvmeNotifyLatency = usToTicks(2.0);
    /** Cachelines copied per PLB burst while a migration is in flight. */
    std::uint32_t plbBurstLines = 8;
    /** Victim selection for demotions when the host budget is full. */
    ReclaimPolicy reclaim = ReclaimPolicy::LruScan;
};

/**
 * Event-kernel tuning (EventQueue's constructor parameters). The
 * defaults are the queue's own constants; both knobs only change
 * simulator wall-clock, never simulated behaviour.
 */
struct KernelConfig
{
    /**
     * Calendar block width in ticks; power of two >= 64. It is the
     * fine level's span and one coarse slot's span, so the coarse
     * level reaches EventQueue::kCoarseSlots blocks ahead.
     */
    std::uint32_t calendarWindowTicks = EventQueue::kWindowTicks;
    /** EventRecords carved per slab chunk. */
    std::uint32_t slabChunkRecords = EventQueue::kChunkRecords;
};

/**
 * Per-tenant QoS controls for co-located `mix:` workloads. All knobs
 * default off, so single-tenant runs and unconfigured mixes behave —
 * and fingerprint — exactly as before. Tenant weights come from the
 * per-tenant `qos=` spec key (default 1.0); every control divides its
 * resource proportionally to weight share.
 */
struct QosConfig
{
    /**
     * Weighted admission control at the SSD controller (`qos_policy=
     * weighted`): each tenant gets creditsPerEpoch * weight-share
     * request credits per epoch, and a request arriving after its
     * tenant's credits are spent is admitted at the start of the next
     * epoch with credit left — a deterministic token bucket that
     * throttles noisy neighbors at the device front end.
     */
    bool weightedAdmission = false;
    /** Admission epoch length (`qos_epoch_us`). */
    Tick epochTicks = usToTicks(10.0);
    /** Total request credits issued per epoch (`qos_credits_per_epoch`),
     *  split across tenants by weight share (>= 1 credit each). */
    std::uint32_t creditsPerEpoch = 256;
    /**
     * Per-tenant write-log entry quotas (`qos_write_log_quota`): a
     * tenant may hold at most capacity * weight-share live log entries;
     * appends beyond the quota are admitted but surcharged one extra
     * admission credit (and counted per tenant), pushing log pressure
     * back onto its source.
     */
    bool writeLogQuota = false;
    /**
     * Per-tenant migration-budget shares (`qos_migration_share`): a
     * tenant's promoted regions may hold at most promotedBytesMax *
     * weight-share bytes of host DRAM; promotions beyond the share are
     * rejected (counted in MigrationStats::rejectedTenantShare).
     */
    bool migrationShare = false;
};

/** Complete system configuration. */
struct SimConfig
{
    std::string name = "Base-CSSD";
    KernelConfig kernel{};
    CpuConfig cpu{};
    HostDramConfig hostDram{};
    SsdDramConfig ssdDram{};
    CxlConfig cxl{};
    NumaConfig numa{};
    FlashConfig flash{};
    SsdCacheConfig ssdCache{};
    HostMemConfig hostMem{};
    PolicyConfig policy{};
    QosConfig qos{};
    /** All application data in host DRAM (the DRAM-Only ideal). */
    bool dramOnly = false;
    /** Precondition the SSD so GC triggers (§VI-A). */
    bool preconditionSsd = true;
    /**
     * Warm the SSD DRAM data cache with the trace's recent working set
     * before the measured run (§VI-A: "we use the traces to warm up the
     * simulator, including ... the SSD DRAM cache").
     */
    bool warmupSsdCache = true;
    /**
     * Carry functional payload: every layer (caches, host DRAM, SSD
     * data cache, FTL page store, migration copies) keeps the 64-bit
     * value of each line. Off by default: timing and statistics depend
     * only on which lines are present and dirty, so every simulated
     * result is identical either way; only value checks need it. Set
     * in code only (no config-file key or flag).
     */
    bool audit = false;
    std::uint64_t seed = 42;
};

/**
 * Named evaluation presets from §VI-A / §VI-H. Valid names: "Base-CSSD",
 * "SkyByte-C", "SkyByte-P", "SkyByte-W", "SkyByte-CP", "SkyByte-WP",
 * "SkyByte-Full", "DRAM-Only", "SkyByte-CT", "SkyByte-WCT",
 * "AstriFlash-CXL".
 * @throws std::invalid_argument for unknown names.
 */
SimConfig makeConfig(const std::string &variant);

/** All variant names in Figure 14 order. */
const std::vector<std::string> &allVariantNames();

} // namespace skybyte

#endif // SKYBYTE_COMMON_CONFIG_H
