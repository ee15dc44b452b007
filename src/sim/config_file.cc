#include "sim/config_file.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/plb.h"
#include "trace/mix_workload.h"

namespace skybyte {

namespace {

std::string
trim(const std::string &s)
{
    const auto begin = s.find_first_not_of(" \t\r\n");
    if (begin == std::string::npos)
        return "";
    const auto end = s.find_last_not_of(" \t\r\n");
    return s.substr(begin, end - begin + 1);
}

bool
parseBool(const std::string &value, const std::string &key)
{
    if (value == "1" || value == "true" || value == "on")
        return true;
    if (value == "0" || value == "false" || value == "off")
        return false;
    throw std::invalid_argument("bad boolean for " + key + ": " + value);
}

std::uint64_t
parseU64(const std::string &value, const std::string &key)
{
    // Shared strict parse (trace/workload_spec.h): digits only, no
    // sign wrap, errors name the key.
    return parseUnsigned(value, key);
}

/** parseU64, rejecting values that do not fit 32 bits. */
std::uint32_t
parseU32(const std::string &value, const std::string &key)
{
    const std::uint64_t v = parseU64(value, key);
    if (v > 0xffffffffULL)
        throw std::invalid_argument(key + " must be below 2^32: " + value);
    return static_cast<std::uint32_t>(v);
}

SchedPolicy
parsePolicy(const std::string &value)
{
    if (value == "RR")
        return SchedPolicy::RoundRobin;
    if (value == "RANDOM")
        return SchedPolicy::Random;
    if (value == "FAIRNESS" || value == "CFS")
        return SchedPolicy::Cfs;
    throw std::invalid_argument("bad t_policy: " + value);
}

NandType
parseNand(const std::string &value)
{
    if (value == "ULL")
        return NandType::ULL;
    if (value == "ULL2")
        return NandType::ULL2;
    if (value == "SLC")
        return NandType::SLC;
    if (value == "MLC")
        return NandType::MLC;
    throw std::invalid_argument("bad flash_type: " + value);
}

} // namespace

void
applyAssignment(const std::string &assignment, ExperimentSpec &spec)
{
    const auto eq = assignment.find('=');
    if (eq == std::string::npos) {
        throw std::invalid_argument("expected key=value, got: "
                                    + assignment);
    }
    const std::string key = trim(assignment.substr(0, eq));
    const std::string value = trim(assignment.substr(eq + 1));
    SimConfig &cfg = spec.config;

    if (key == "promotion_enable") {
        cfg.policy.promotionEnable = parseBool(value, key);
        if (cfg.policy.promotionEnable
            && cfg.policy.migration == MigrationMechanism::None) {
            cfg.policy.migration = MigrationMechanism::SkyByte;
        }
    } else if (key == "write_log_enable") {
        cfg.policy.writeLogEnable = parseBool(value, key);
    } else if (key == "device_triggered_ctx_swt") {
        cfg.policy.deviceTriggeredCtxSwitch = parseBool(value, key);
    } else if (key == "cs_threshold") {
        cfg.policy.csThreshold =
            nsToTicks(static_cast<double>(parseU64(value, key)));
    } else if (key == "ssd_cache_size_byte") {
        cfg.ssdCache.dataCacheBytes = parseU64(value, key);
    } else if (key == "write_log_size_byte") {
        cfg.ssdCache.writeLogBytes = parseU64(value, key);
    } else if (key == "ssd_cache_way") {
        cfg.ssdCache.dataCacheWays = parseU32(value, key);
    } else if (key == "host_dram_size_byte") {
        cfg.hostMem.promotedBytesMax = parseU64(value, key);
    } else if (key == "t_policy") {
        cfg.policy.schedPolicy = parsePolicy(value);
    } else if (key == "flash_type") {
        cfg.flash.timing = nandTiming(parseNand(value));
    } else if (key == "num_cores") {
        const std::uint64_t cores = parseU64(value, key);
        if (cores == 0 || cores > 1024) {
            throw std::invalid_argument(
                "num_cores must be in [1, 1024]: " + value);
        }
        cfg.cpu.numCores = static_cast<int>(cores);
    } else if (key == "rob_entries") {
        // Every thread's window ring is allocated at this size.
        const std::uint64_t entries = parseU64(value, key);
        if (entries == 0 || entries > 4096) {
            throw std::invalid_argument(
                "rob_entries must be in [1, 4096]: " + value);
        }
        cfg.cpu.robEntries = static_cast<std::uint32_t>(entries);
    } else if (key == "hot_page_threshold") {
        cfg.policy.hotPageThreshold = parseU32(value, key);
    } else if (key == "migration_mechanism") {
        if (value == "skybyte")
            cfg.policy.migration = MigrationMechanism::SkyByte;
        else if (value == "tpp")
            cfg.policy.migration = MigrationMechanism::Tpp;
        else if (value == "astriflash")
            cfg.policy.migration = MigrationMechanism::AstriFlash;
        else if (value == "none")
            cfg.policy.migration = MigrationMechanism::None;
        else
            throw std::invalid_argument("bad migration_mechanism: "
                                        + value);
    } else if (key == "wear_aware_allocation") {
        cfg.flash.wearAwareAllocation = parseBool(value, key);
    } else if (key == "gc_threshold_pct") {
        const std::uint64_t pct = parseU64(value, key);
        if (pct == 0 || pct >= 100) {
            throw std::invalid_argument(
                "gc_threshold_pct must be in (0, 100): " + value);
        }
        cfg.flash.gcFreeBlockThreshold =
            static_cast<double>(pct) / 100.0;
        cfg.flash.gcRestoreThreshold =
            cfg.flash.gcFreeBlockThreshold + 0.05;
    } else if (key == "huge_page_byte") {
        // §IV huge-page migration granularity; 0 = plain 4 KB pages.
        const std::uint64_t bytes = parseU64(value, key);
        if (bytes != 0
            && (bytes < kPageBytes || bytes % kPageBytes != 0
                || (bytes & (bytes - 1)) != 0)) {
            throw std::invalid_argument(
                "huge_page_byte must be 0 or a power-of-two multiple "
                "of 4096: " + value);
        }
        // A PLB entry's bitmaps cover at most one 2 MB region.
        constexpr std::uint64_t kMaxBytes =
            std::uint64_t{Plb::kMaxRegionPages} * kPageBytes;
        if (bytes > kMaxBytes) {
            throw std::invalid_argument(
                "huge_page_byte must be at most "
                + std::to_string(kMaxBytes) + ": " + value);
        }
        cfg.hostMem.hugePageBytes = bytes;
    } else if (key == "plb_entries") {
        cfg.hostMem.plbEntries = parseU32(value, key);
    } else if (key == "reclaim_policy") {
        if (value == "lru")
            cfg.hostMem.reclaim = ReclaimPolicy::LruScan;
        else if (value == "active_inactive")
            cfg.hostMem.reclaim = ReclaimPolicy::ActiveInactive;
        else
            throw std::invalid_argument("bad reclaim_policy: " + value);
    } else if (key == "pinned_device_byte") {
        cfg.hostMem.pinnedDeviceBytes = parseU64(value, key);
    } else if (key == "dram_bank_model") {
        // Table II speed grades on both devices, or fixed latency.
        if (parseBool(value, key)) {
            cfg.hostDram.bank = ddr5BankTiming();
            cfg.ssdDram.bank = lpddr4BankTiming();
        } else {
            cfg.hostDram.bank = DramBankTiming{};
            cfg.ssdDram.bank = DramBankTiming{};
        }
    } else if (key == "qos_policy") {
        if (value == "none")
            cfg.qos.weightedAdmission = false;
        else if (value == "weighted")
            cfg.qos.weightedAdmission = true;
        else
            throw std::invalid_argument("bad qos_policy: " + value);
    } else if (key == "qos_epoch_us") {
        const std::uint64_t us = parseU64(value, key);
        if (us == 0 || us > 1'000'000) {
            throw std::invalid_argument(
                "qos_epoch_us must be in [1, 1000000]: " + value);
        }
        cfg.qos.epochTicks = usToTicks(static_cast<double>(us));
    } else if (key == "qos_credits_per_epoch") {
        const std::uint32_t credits = parseU32(value, key);
        if (credits == 0) {
            throw std::invalid_argument(
                "qos_credits_per_epoch must be in [1, 2^32): " + value);
        }
        cfg.qos.creditsPerEpoch = credits;
    } else if (key == "qos_write_log_quota") {
        cfg.qos.writeLogQuota = parseBool(value, key);
    } else if (key == "qos_migration_share") {
        cfg.qos.migrationShare = parseBool(value, key);
    } else if (key == "numa_sockets") {
        cfg.numa.sockets = parseU32(value, key);
    } else if (key == "dram_only") {
        cfg.dramOnly = parseBool(value, key);
    } else if (key == "precondition") {
        cfg.preconditionSsd = parseBool(value, key);
    } else if (key == "warmup") {
        cfg.warmupSsdCache = parseBool(value, key);
    } else if (key == "seed") {
        cfg.seed = parseU64(value, key);
        spec.params.seed = cfg.seed;
    } else if (key == "workload") {
        spec.workload = parseWorkloadSpec(value);
        // Resolve the name and typecheck the args now (construction is
        // cheap and generates no records), so a typo fails with its
        // config line number instead of at run time.
        // Mixes need at least their explicit threads= sum to
        // construct, so size the trial accordingly instead of the
        // single-thread default.
        WorkloadParams trial = spec.params;
        trial.numThreads = spec.workload.isMix()
                               ? mixMinimumThreads(spec.workload)
                               : 1;
        trial.instrPerThread = 0;
        makeWorkload(spec.workload, trial);
    } else if (key == "num_threads") {
        const std::uint64_t threads = parseU64(value, key);
        // Bound before the cast to int: a huge value must error, not
        // silently wrap (mirrors the spec-level threads= guard).
        if (threads == 0 || threads > 65536) {
            throw std::invalid_argument(
                "num_threads must be in [1, 65536]: " + value);
        }
        spec.params.numThreads = static_cast<int>(threads);
    } else if (key == "instr_per_thread") {
        spec.params.instrPerThread = parseU64(value, key);
    } else if (key == "footprint_byte") {
        spec.params.footprintBytes = parseU64(value, key);
    } else {
        throw std::invalid_argument("unknown config key: " + key);
    }
}

void
applyConfigStream(std::istream &in, ExperimentSpec &spec)
{
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        lineno++;
        const std::string t = trim(line);
        if (t.empty() || t[0] == '#')
            continue;
        try {
            applyAssignment(t, spec);
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument("line "
                                        + std::to_string(lineno) + ": "
                                        + e.what());
        }
    }
}

void
applyConfigFile(const std::string &path, ExperimentSpec &spec)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open config file: " + path);
    applyConfigStream(in, spec);
}

} // namespace skybyte
