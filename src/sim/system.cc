#include "sim/system.h"

#include <algorithm>

#include "trace/mix_workload.h"

namespace skybyte {

void
MemRouter::noteHost(Addr vaddr, bool is_write)
{
    if (is_write)
        hostWrites_++;
    else
        hostReads_++;
    if (tenants_ == nullptr)
        return;
    TenantCounters *tenant = tenants_->counters(tenants_->ofVaddr(vaddr));
    if (tenant == nullptr)
        return;
    if (is_write)
        tenant->hostWrites++;
    else
        tenant->hostReads++;
}

void
MemRouter::read(const MemRequest &req, Tick when, MemCallback cb)
{
    const Addr vaddr = req.lineAddr;
    if (sys_.cfg_.dramOnly || !sys_.isDeviceAddr(vaddr)) {
        noteHost(vaddr, false);
        // readAt() reports the completion tick, so the latency sum is
        // accounted here instead of by wrapping the callback (the sum
        // of integral tick deltas is exact in a double either way).
        const Tick done = sys_.hostDram_->readAt(req, when, std::move(cb));
        hostReadTicks_ += static_cast<double>(done - when);
        return;
    }

    const Addr dev = sys_.toDeviceAddr(vaddr);
    const std::uint64_t lpn = pageNumber(dev);

    const Tick t_cxl = when + sys_.numaPenalty(req.coreId);

    if (sys_.astri_ != nullptr) {
        sys_.astri_->read(dev, t_cxl, std::move(cb));
        return;
    }

    if (sys_.migration_ != nullptr) {
        sys_.migration_->onSsdAccess(lpn, when); // TPP sampling
        if (sys_.migration_->route(lpn, lineInPage(dev), when, false)
            == PageHome::Host) {
            noteHost(vaddr, false);
            MemRequest hreq = req;
            hreq.lineAddr = dev; // promoted pages keyed by device addr
            // The response's lineAddr carries the device address; the
            // uncore finds the in-flight miss by the MSHR slot its
            // callback captured (as it does for SSD responses), so no
            // rewrite wrap is needed.
            const Tick done =
                sys_.hostDram_->readAt(hreq, when, std::move(cb));
            hostReadTicks_ += static_cast<double>(done - when);
            return;
        }
    }
    sys_.ssd_->read(dev, t_cxl, std::move(cb));
}

void
MemRouter::write(const MemRequest &req, Tick when)
{
    const Addr vaddr = req.lineAddr;
    if (sys_.cfg_.dramOnly || !sys_.isDeviceAddr(vaddr)) {
        noteHost(vaddr, true);
        sys_.hostDram_->write(req, when);
        return;
    }
    const Addr dev = sys_.toDeviceAddr(vaddr);
    const std::uint64_t lpn = pageNumber(dev);

    const Tick t_cxl = when + sys_.numaPenalty(req.coreId);
    if (sys_.astri_ != nullptr) {
        sys_.astri_->write(dev, req.value, t_cxl);
        return;
    }
    if (sys_.migration_ != nullptr
        && sys_.migration_->route(lpn, lineInPage(dev), when, true)
               == PageHome::Host) {
        noteHost(vaddr, true);
        MemRequest hreq = req;
        hreq.lineAddr = dev;
        sys_.hostDram_->write(hreq, when);
        return;
    }
    sys_.ssd_->write(dev, req.value, t_cxl);
}

System::System(const SimConfig &cfg, const WorkloadSpec &workload,
               const WorkloadParams &params)
    : cfg_(cfg), params_(params),
      eq_(cfg_.kernel.calendarWindowTicks, cfg_.kernel.slabChunkRecords)
{
    params_.numThreads = std::max(params_.numThreads, 1);
    params_.seed = cfg_.seed;
    workload_ = makeWorkload(workload, params_);
    // Full spec text, so differently parameterized runs of one
    // generator stay distinguishable in reports.
    workloadLabel_ = workload.text();
    // A spec's threads= arg overrides params: follow the workload so
    // every generated lane gets a ThreadContext.
    params_.numThreads = workload_->numThreads();
    buildSystem([this, workload] {
        return makeWorkload(workload, params_);
    });
}

System::System(const SimConfig &cfg, const std::string &workload_spec,
               const WorkloadParams &params)
    : System(cfg, parseWorkloadSpec(workload_spec), params)
{}

System::System(const SimConfig &cfg, std::unique_ptr<Workload> workload,
               std::function<std::unique_ptr<Workload>()> warm_factory,
               std::string label)
    : cfg_(cfg),
      eq_(cfg_.kernel.calendarWindowTicks, cfg_.kernel.slabChunkRecords)
{
    workload_ = std::move(workload);
    workloadLabel_ =
        label.empty() ? workload_->name() : std::move(label);
    params_.numThreads = workload_->numThreads();
    params_.seed = cfg_.seed;
    buildSystem(warm_factory);
}

void
System::buildSystem(
    const std::function<std::unique_ptr<Workload>()> &warm_factory)
{
    // Co-located run: per-tenant stat buckets and the QoS controls
    // (weights from the tenants' qos= spec keys; every knob defaults
    // off). A single-tenant mix builds no map, so it reports (and
    // fingerprints) exactly like the plain workload it degenerates to.
    mix_ = dynamic_cast<MixWorkload *>(workload_.get());
    if (mix_ != nullptr)
        tenants_ = mix_->tenantMap();

    link_ = std::make_unique<CxlLink>(eq_, cfg_.cxl);
    hostDram_ = std::make_unique<DramModel>(eq_, cfg_.hostDram, cfg_.audit);
    ssd_ = std::make_unique<SsdController>(cfg_, eq_, *link_,
                                           tenants_.get());

    if (!cfg_.dramOnly && cfg_.preconditionSsd) {
        const std::uint64_t pages =
            workload_->footprintBytes() / kPageBytes;
        ssd_->ftl().precondition(pages);
    }
    if (!cfg_.dramOnly && cfg_.warmupSsdCache && warm_factory) {
        auto warm = warm_factory();
        if (warm)
            warmupSsd(*warm);
    }

    if (cfg_.policy.migration == MigrationMechanism::AstriFlash) {
        astri_ = std::make_unique<AstriFlashCache>(cfg_, eq_, *ssd_,
                                                   *hostDram_);
    } else if (cfg_.policy.promotionEnable
               && cfg_.policy.migration != MigrationMechanism::None) {
        migration_ = std::make_unique<MigrationEngine>(
            cfg_, eq_, *ssd_, *hostDram_, *link_, tenants_.get());
    }

    router_ = std::make_unique<MemRouter>(*this, tenants_.get());
    uncore_ = std::make_unique<Uncore>(cfg_.cpu, eq_, *router_, cfg_.audit,
                                       tenants_.get());

    for (int c = 0; c < cfg_.cpu.numCores; ++c) {
        cores_.push_back(std::make_unique<Core>(c, cfg_.cpu, cfg_.policy,
                                                eq_, *uncore_, cfg_.audit));
    }
    for (int t = 0; t < params_.numThreads; ++t) {
        threads_.push_back(
            std::make_unique<ThreadContext>(t, workload_.get(),
                                            cfg_.cpu.robEntries));
    }

    sched_ = std::make_unique<CxlAwareScheduler>(cfg_.policy.schedPolicy,
                                                 cfg_.seed);
    std::vector<Core *> core_ptrs;
    for (auto &core : cores_) {
        core->setScheduler(sched_.get());
        core_ptrs.push_back(core.get());
    }
    sched_->setCores(core_ptrs);
    for (auto &thread : threads_)
        sched_->addThread(thread.get());

    if (migration_ != nullptr) {
        migration_->setShootdownHook([this](Tick cost) {
            for (auto &core : cores_)
                core->addPenalty(cost);
        });
    }
}

System::~System() = default;

void
System::warmupSsd(Workload &warm_ref)
{
    // Stream an identically-distributed copy of the trace (same seeds,
    // fresh generator state) and preload the SSD data cache with the
    // most-recently-touched device pages, oldest first so the LRU order
    // matches a real warm state (§VI-A). Each thread is drained through
    // its own batch cursor; the 64-record interleave matches the seed
    // pass so the LRU sequence is unchanged.
    Workload *warm = &warm_ref;

    std::vector<TraceCursor> cursors;
    cursors.reserve(static_cast<std::size_t>(warm->numThreads()));
    for (int t = 0; t < warm->numThreads(); ++t)
        cursors.emplace_back(*warm, t);

    // Per device page: 1 + the seq of its last touch, 0 if untouched.
    std::vector<std::uint64_t> last_touch;
    std::uint64_t seq = 0;
    std::uint64_t budget = 2'000'000;
    TraceRecord rec;
    bool progressed = true;
    while (progressed && budget > 0) {
        progressed = false;
        for (int t = 0; t < warm->numThreads() && budget > 0; ++t) {
            for (int k = 0; k < 64 && budget > 0; ++k) {
                if (!cursors[t].next(rec))
                    break;
                progressed = true;
                budget--;
                if (!isDeviceAddr(rec.vaddr))
                    continue;
                const std::uint64_t lpn =
                    pageNumber(toDeviceAddr(rec.vaddr));
                if (lpn >= last_touch.size())
                    last_touch.resize(lpn + 1);
                last_touch[lpn] = ++seq;
            }
        }
    }

    // Fill order is by (unique) touch seq, oldest first.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pages;
    for (std::uint64_t lpn = 0; lpn < last_touch.size(); ++lpn) {
        if (last_touch[lpn] != 0)
            pages.emplace_back(lpn, last_touch[lpn]);
    }
    std::sort(pages.begin(), pages.end(),
              [](const auto &a, const auto &b) {
                  return a.second < b.second;
              });
    const std::uint64_t capacity = ssd_->cache().capacityPages();
    const std::size_t start =
        pages.size() > capacity ? pages.size() - capacity : 0;
    for (std::size_t i = start; i < pages.size(); ++i)
        ssd_->warmFill(pages[i].first);
}

Tick
System::numaPenalty(int core_id) const
{
    const NumaConfig &numa = cfg_.numa;
    if (numa.sockets <= 1 || core_id < 0)
        return 0;
    const auto socket = static_cast<std::uint32_t>(
        core_id * static_cast<int>(numa.sockets) / cfg_.cpu.numCores);
    return socket == numa.ssdHomeSocket ? 0 : numa.interSocketLatency;
}

bool
System::isDeviceAddr(Addr vaddr) const
{
    return vaddr >= Workload::kDataBase
           && vaddr < Workload::kDataBase + workload_->footprintBytes();
}

Addr
System::toDeviceAddr(Addr vaddr) const
{
    return vaddr - Workload::kDataBase;
}

SimResult
System::run(Tick max_ticks)
{
    sched_->start(eq_.now());
    bool timed_out = false;
    while (!sched_->allFinished()) {
        if (!eq_.step()) {
            // No events but threads unfinished: deadlock guard.
            timed_out = true;
            break;
        }
        if (eq_.now() > max_ticks) {
            timed_out = true;
            break;
        }
    }
    // Drain device-side background work, bounded so a busy device
    // cannot extend the run unboundedly past thread completion.
    const Tick drain_limit =
        std::min(max_ticks, eq_.now() + usToTicks(100'000.0));
    while (!timed_out && eq_.pending() > 0 && eq_.now() <= drain_limit)
        eq_.step();

    SimResult res;
    res.variant = cfg_.name;
    res.workload = workloadLabel_;
    res.timedOut = timed_out;
    res.execTime = sched_->lastFinishTime();

    for (auto &core : cores_) {
        const CoreStats &cs = core->stats();
        res.committedInstructions += cs.committedInstructions;
        res.computeTicks += cs.computeTicks;
        res.memStallTicks += cs.memStallTicks;
        res.ctxSwitchTicks += cs.ctxSwitchTicks;
        res.idleTicks += cs.idleTicks;
        res.contextSwitches += cs.contextSwitches;
    }

    const SsdStats &ss = ssd_->stats();
    res.hostReads = router_->hostReads();
    res.hostWrites = router_->hostWrites();
    res.ssdReadHits = ss.readHitsLog + ss.readHitsCache;
    res.ssdReadMisses = ss.readMisses;
    res.ssdWrites = ss.writes;

    const double ssd_reads = static_cast<double>(ss.amatReads);
    const double host_reads = static_cast<double>(res.hostReads);
    const double total_reads = ssd_reads + host_reads;
    if (total_reads > 0) {
        res.amatHostTicks = router_->hostReadTicks() / total_reads;
        res.amatProtocolTicks = ss.protocolTicks / total_reads;
        res.amatIndexingTicks = ss.indexingTicks / total_reads;
        res.amatSsdDramTicks = ss.ssdDramTicks / total_reads;
        res.amatFlashTicks = ss.flashTicks / total_reads;
        res.amatTotalTicks = res.amatHostTicks + res.amatProtocolTicks
                             + res.amatIndexingTicks + res.amatSsdDramTicks
                             + res.amatFlashTicks;
    }

    const FtlStats &fs = ssd_->ftl().stats();
    res.flashHostPrograms = fs.hostPrograms;
    res.flashGcPrograms = fs.gcPageMoves;
    res.flashReads = ssd_->ftl().totalReads();
    res.gcRuns = fs.gcRuns;
    res.compactions = ss.compactionRuns;
    res.flashReadLatencyUs =
        ticksToUs(static_cast<Tick>(ss.flashReadLatency.meanTicks()));
    res.writeAmplification = ssd_->ftlc().writeAmplification();
    res.wearSpread = ssd_->ftlc().wearSummary().spread();

    if (const WriteLog *log = ssd_->writeLog()) {
        const WriteLogStats &ls = log->stats();
        res.logAppends = ls.appends;
        res.logUpdateHits = ls.updateHits;
        res.logOverflowAppends = ls.overflowAppends;
        res.logIndexBytesPeak = ls.indexBytesPeak;
    }

    if (migration_ != nullptr) {
        res.promotions = migration_->stats().promotions;
        res.demotions = migration_->stats().demotions;
        res.qosMigrationShareRejects =
            migration_->stats().rejectedTenantShare;
    }
    if (astri_ != nullptr) {
        res.astriHostHits = astri_->stats().hostHits;
        res.astriHostMisses = astri_->stats().hostMisses;
        res.promotions = astri_->stats().pageFills;
    }

    if (tenants_ != nullptr) {
        const std::vector<MixTenant> &tenants = mix_->tenants();
        res.tenants.reserve(tenants.size());
        for (std::size_t i = 0; i < tenants.size(); ++i) {
            TenantResult tr(*tenants_->counters(static_cast<int>(i)));
            tr.name = tenants[i].name;
            tr.spec = tenants[i].specText;
            tr.threads = tenants[i].threads;
            tr.qosWeight = tenants[i].qosWeight;
            res.tenants.push_back(std::move(tr));
        }
        for (std::size_t tid = 0; tid < threads_.size(); ++tid) {
            TenantResult &tr = res.tenants[static_cast<std::size_t>(
                tenants_->ofThread(static_cast<int>(tid)))];
            tr.instructions +=
                workload_->instructionsEmitted(static_cast<int>(tid));
            tr.execTime = std::max(tr.execTime, threads_[tid]->finishTime());
        }
    }

    res.cxlBytes = link_->bytesTransferred();
    res.llcMisses = uncore_->llcMisses();
    res.llcAccesses = uncore_->l3c().hits() + uncore_->l3c().misses();
    res.offchipLatency = uncore_->offchipLatency();
    res.readLocality = ss.readLocality;
    res.writeLocality = ss.writeLocality;
    return res;
}

SimResult
runSimulation(const SimConfig &cfg, const std::string &workload_name,
              const WorkloadParams &params, Tick max_ticks)
{
    System sys(cfg, workload_name, params);
    return sys.run(max_ticks);
}

} // namespace skybyte
