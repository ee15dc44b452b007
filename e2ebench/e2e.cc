#include "e2e.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/event_queue.h"
#include "core/ssd_controller.h"
#include "cpu/cache.h"
#include "cxl/cxl.h"
#include "sim/report.h"
#include "sim/system.h"
#include "trace/workload_spec.h"

namespace e2e {

using namespace skybyte;

const std::vector<BenchWorkload> &
benchWorkloads()
{
    // fig16's length for the SSD variants; DRAM-Only runs about three
    // times faster per point, so it gets twice the instructions. The
    // budgets give 5, 9 and 9 sweeps in a 30 s run.
    static const std::vector<BenchWorkload> workloads = {
        {"paper-skybyte", "SkyByte-Full", 120'000, 6.0},
        {"paper-cssd", "Base-CSSD", 120'000, 3.3},
        {"paper-dram", "DRAM-Only", 240'000, 3.3},
    };
    return workloads;
}

const BenchWorkload *
findBenchWorkload(const std::string &name)
{
    for (const BenchWorkload &w : benchWorkloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

std::vector<BenchPoint>
benchPoints(const BenchWorkload &w, std::uint64_t seed,
            std::uint64_t instr_override)
{
    ExperimentOptions opt;
    opt.instrPerThread =
        instr_override != 0 ? instr_override : w.instrPerThread;
    opt.seed = seed;
    std::vector<BenchPoint> points;
    for (const std::string &name : paperWorkloadNames())
        points.push_back({w.name + "/" + name + "@" + std::to_string(seed),
                          makeSweepPoint(w.variant, name, opt)});
    return points;
}

namespace {

std::uint64_t
emittedBy(const Workload &workload)
{
    std::uint64_t total = 0;
    for (int t = 0; t < workload.numThreads(); ++t)
        total += workload.instructionsEmitted(t);
    return total;
}

/** System's own parameter fix-ups for spec-built workloads. */
WorkloadParams
pointParams(const SweepPoint &p)
{
    WorkloadParams params = makeParams(p.cfg, p.opt);
    params.numThreads = std::max(params.numThreads, 1);
    params.seed = p.cfg.seed;
    return params;
}

/** Finish @p out from a constructed System; @p start precedes it. */
void
runAndReport(System &sys, Clock::time_point start, Clock::time_point built,
             PointRun &out)
{
    out.constructS = std::chrono::duration<double>(built - start).count();
    const Clock::time_point run_start = Clock::now();
    out.result = sys.run();
    const Clock::time_point ran = Clock::now();
    out.json = toJson(out.result);
    out.reportS = secondsSince(ran);
    out.runS = std::chrono::duration<double>(ran - run_start).count();
    out.emitted = emittedBy(sys.workload());
}

} // namespace

PointRun
runPoint(const SweepPoint &p)
{
    PointRun out;
    const WorkloadParams params = makeParams(p.cfg, p.opt);
    const Clock::time_point start = Clock::now();
    System sys(p.cfg, p.workload, params);
    runAndReport(sys, start, Clock::now(), out);
    return out;
}

PointRun
runPointTraced(const SweepPoint &p)
{
    PointRun out;
    WorkloadParams params = pointParams(p);
    const WorkloadSpec spec = parseWorkloadSpec(p.workload);
    // The spec constructor builds its workload inside construction, so
    // the construct span starts before makeWorkload here too.
    const Clock::time_point start = Clock::now();
    auto inner = makeWorkload(spec, params);
    params.numThreads = inner->numThreads();
    System sys(
        p.cfg, std::make_unique<TimedWorkload>(std::move(inner), out.refill),
        [&]() -> std::unique_ptr<Workload> {
            return std::make_unique<TimedWorkload>(
                makeWorkload(spec, params), out.warmRefill);
        },
        spec.text());
    runAndReport(sys, start, Clock::now(), out);
    return out;
}

std::string
checkPointRun(const PointRun &run)
{
    if (run.result.timedOut)
        return "run timed out";
    if (run.emitted == 0)
        return "workload emitted no instructions";
    if (run.result.committedInstructions != run.emitted) {
        return "committed " + std::to_string(run.result.committedInstructions)
               + " of " + std::to_string(run.emitted)
               + " emitted instructions";
    }
    return "";
}

PreconditionProbe
probePrecondition(const SweepPoint &p)
{
    PreconditionProbe probe;
    if (p.cfg.dramOnly || !p.cfg.preconditionSsd)
        return probe;
    probe.pages =
        makeWorkload(p.workload, pointParams(p))->footprintBytes()
        / kPageBytes;
    EventQueue eq(p.cfg.kernel.calendarWindowTicks,
                  p.cfg.kernel.slabChunkRecords);
    CxlLink link(eq, p.cfg.cxl);
    SsdController ssd(p.cfg, eq, link);
    const Clock::time_point start = Clock::now();
    ssd.ftl().precondition(probe.pages);
    probe.seconds = secondsSince(start);
    return probe;
}

namespace {

/** Functional L1d/L2 per core over a shared LLC, as the core model uses
 *  them (stores allocate without a fetch; dirty victims cascade down). */
class CacheReplay
{
  public:
    explicit CacheReplay(const CpuConfig &cpu) : llc_(cpu.llc)
    {
        for (int c = 0; c < cpu.numCores; ++c) {
            l1_.emplace_back(cpu.l1d);
            l2_.emplace_back(cpu.l2);
        }
    }

    void
    access(std::size_t core, const TraceRecord &rec)
    {
        SetAssocCache &l1 = l1_[core];
        SetAssocCache &l2 = l2_[core];
        const Addr line = lineAlign(rec.vaddr);
        calls_++;
        if (rec.isWrite) {
            if (!l1.access(line, true))
                fillL1(core, line, true);
            return;
        }
        if (l1.access(line, false))
            return;
        calls_++;
        if (!l2.access(line, false)) {
            calls_++;
            if (!llc_.access(line, false)) {
                calls_++;
                llc_.fill(line, false);
            }
            calls_++;
            const CacheResult r2 = l2.fill(line, false);
            if (r2.writeback)
                writebackToLlc(r2.victimAddr);
        }
        fillL1(core, line, false);
    }

    std::uint64_t calls() const { return calls_; }

  private:
    void
    fillL1(std::size_t core, Addr line, bool dirty)
    {
        calls_++;
        const CacheResult r1 = l1_[core].fill(line, dirty);
        if (!r1.writeback)
            return;
        calls_++;
        const CacheResult r2 = l2_[core].fill(r1.victimAddr, true);
        if (r2.writeback)
            writebackToLlc(r2.victimAddr);
    }

    void
    writebackToLlc(Addr line)
    {
        calls_++;
        llc_.fill(line, true);
    }

    std::vector<SetAssocCache> l1_;
    std::vector<SetAssocCache> l2_;
    SetAssocCache llc_;
    std::uint64_t calls_ = 0;
};

} // namespace

CacheProbe
probeCaches(const SweepPoint &p)
{
    auto workload = makeWorkload(p.workload, pointParams(p));
    std::vector<std::vector<TraceRecord>> streams(
        static_cast<std::size_t>(workload->numThreads()));
    std::size_t longest = 0;
    for (std::size_t t = 0; t < streams.size(); ++t) {
        TraceCursor cursor(*workload, static_cast<int>(t));
        TraceRecord rec;
        while (cursor.next(rec))
            streams[t].push_back(rec);
        longest = std::max(longest, streams[t].size());
    }

    CacheReplay replay(p.cfg.cpu);
    const auto cores = static_cast<std::size_t>(p.cfg.cpu.numCores);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < longest; ++i) {
        for (std::size_t t = 0; t < streams.size(); ++t) {
            if (i < streams[t].size())
                replay.access(t % cores, streams[t][i]);
        }
    }
    CacheProbe probe;
    probe.seconds = secondsSince(start);
    probe.calls = replay.calls();
    return probe;
}

namespace {

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

std::string
digestOf(std::string_view json)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(json)));
    return buf;
}

DigestTable
parseDigests(const std::string &text)
{
    DigestTable table;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key;
        std::string digest;
        std::string extra;
        if (!(fields >> key >> digest) || (fields >> extra)
            || digest.size() != 16) {
            throw std::invalid_argument("digests line "
                                        + std::to_string(line_no)
                                        + ": expected '<key> <16 hex>'");
        }
        if (!table.emplace(key, digest).second) {
            throw std::invalid_argument("digests line "
                                        + std::to_string(line_no)
                                        + ": duplicate key " + key);
        }
    }
    return table;
}

std::string
formatDigests(const DigestTable &table)
{
    std::string out = "# <workload>/<point>@<seed> fnv1a64(toJson(SimResult))\n";
    for (const auto &[key, digest] : table)
        out += key + " " + digest + "\n";
    return out;
}

std::string
checkDigest(const DigestTable &table, const std::string &key,
            std::string_view json)
{
    const auto it = table.find(key);
    if (it == table.end())
        return "no pinned digest for " + key;
    const std::string got = digestOf(json);
    if (got != it->second)
        return "digest " + got + " != pinned " + it->second;
    return "";
}

} // namespace e2e
