#include "sim/experiment.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

namespace skybyte {

ExperimentOptions
ExperimentOptions::fromEnv()
{
    ExperimentOptions opt;
    if (const char *s = std::getenv("SKYBYTE_BENCH_INSTR"))
        opt.instrPerThread = std::strtoull(s, nullptr, 10);
    if (const char *s = std::getenv("SKYBYTE_BENCH_THREADS"))
        opt.threadsOverride = static_cast<int>(std::strtol(s, nullptr, 10));
    if (const char *s = std::getenv("SKYBYTE_BENCH_FOOTPRINT_MB")) {
        opt.footprintBytes =
            std::strtoull(s, nullptr, 10) * 1024ULL * 1024ULL;
    }
    return opt;
}

int
defaultThreadsFor(const SimConfig &cfg, const ExperimentOptions &opt)
{
    if (opt.threadsOverride > 0)
        return opt.threadsOverride;
    // §VI-A: 24 threads on 8 cores with coordinated context switch
    // enabled, 8 threads on 8 cores otherwise.
    return cfg.policy.deviceTriggeredCtxSwitch ? cfg.cpu.numCores * 3
                                               : cfg.cpu.numCores;
}

WorkloadParams
makeParams(const SimConfig &cfg, const ExperimentOptions &opt)
{
    WorkloadParams params;
    params.numThreads = defaultThreadsFor(cfg, opt);
    // Fixed total problem size: all traces represent the same program
    // section regardless of thread count (§VI-A), so per-thread work
    // shrinks as threads grow. instrPerThread is defined at 8 threads.
    const std::uint64_t total = opt.instrPerThread * 8;
    params.instrPerThread =
        total / static_cast<std::uint64_t>(params.numThreads);
    params.footprintBytes = opt.footprintBytes;
    params.seed = opt.seed;
    return params;
}

void
applyBenchScale(SimConfig &cfg)
{
    cfg.cpu.l1d.sizeBytes = 16 * 1024;
    cfg.cpu.l2.sizeBytes = 128 * 1024;
    cfg.cpu.llc.sizeBytes = 2 * 1024 * 1024;
}

SimConfig
makeBenchConfig(const std::string &variant)
{
    SimConfig cfg = makeConfig(variant);
    applyBenchScale(cfg);
    return cfg;
}

SimResult
runConfig(const SimConfig &cfg, const std::string &workload,
          const ExperimentOptions &opt)
{
    return runSimulation(cfg, workload, makeParams(cfg, opt));
}

SimResult
runVariant(const std::string &variant, const std::string &workload,
           const ExperimentOptions &opt)
{
    SimConfig cfg = makeBenchConfig(variant);
    cfg.seed = opt.seed;
    return runConfig(cfg, workload, opt);
}

SweepPoint
makeSweepPoint(const std::string &variant, const std::string &workload,
               const ExperimentOptions &opt)
{
    SweepPoint point{makeBenchConfig(variant), workload, opt};
    point.cfg.seed = opt.seed;
    return point;
}

int
sweepThreads(int nthreads, std::size_t npoints)
{
    if (nthreads <= 0)
        nthreads = static_cast<int>(std::thread::hardware_concurrency());
    if (nthreads <= 0)
        nthreads = 1;
    return static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(nthreads),
                              std::max<std::size_t>(npoints, 1)));
}

std::vector<SimResult>
runSweep(const std::vector<SweepPoint> &points, int nthreads)
{
    std::vector<SimResult> results(points.size());
    if (points.empty())
        return results;
    const int workers = sweepThreads(nthreads, points.size());
    if (workers == 1) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            const SweepPoint &p = points[i];
            results[i] = runConfig(p.cfg, p.workload, p.opt);
        }
        return results;
    }
    // Each worker claims the next unstarted point; every System is
    // fully private to its run, so no cross-run synchronization is
    // needed beyond the claim counter.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int t = 0; t < workers; ++t) {
        pool.emplace_back([&] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= points.size())
                    return;
                const SweepPoint &p = points[i];
                results[i] = runConfig(p.cfg, p.workload, p.opt);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    return results;
}

} // namespace skybyte
