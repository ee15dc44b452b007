/**
 * @file
 * Trace generator, standing in for the artifact's PIN capture pipeline
 * (appendix §G "Capturing Custom Program's Traces"): renders any
 * registered workload spec into an STRC capture
 * (trace/trace_log/trace_log.h) so it can be replayed repeatedly — by
 * skybyte_sim or a sweep through the "tracelog:path=..." workload
 * spec, or by skybyte_traceinfo for offline analysis. The workload is
 * drained through the batched TraceBatch contract (TraceCursor per
 * thread).
 *
 *   skybyte_tracegen -w <workload-spec> -o <path> [-n threads]
 *                    [-i instr-per-thread] [-m footprint-mb] [-s seed]
 *
 * <workload-spec> is a registered name, optionally parameterized:
 * "ycsb", "zipf:theta=0.99,footprint=64M", ...
 */

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "trace/mix_workload.h"
#include "trace/trace_log/trace_log.h"
#include "trace/workload.h"

using namespace skybyte;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: skybyte_tracegen -w <workload-spec> -o <path>"
        " [-n threads]\n"
        "                        [-i instr-per-thread] [-m footprint-mb]"
        " [-s seed]\n"
        "workload specs: name[:key=value,...], e.g."
        " zipf:theta=0.99,footprint=64M\n"
        "co-location:    mix:tenant=spec[;tenant=spec]..., e.g."
        " \"mix:a=zipf:footprint=4G;b=scan:threads=2\"\nregistered:");
    for (const std::string &name : registeredWorkloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::string out_path;
    WorkloadParams params;
    params.instrPerThread = 200'000;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument("missing value for "
                                                + arg);
                return argv[++i];
            };
            if (arg == "-w") {
                workload_name = next();
            } else if (arg == "-o") {
                out_path = next();
            } else if (arg == "-n") {
                params.numThreads = std::stoi(next());
            } else if (arg == "-i") {
                params.instrPerThread = std::stoull(next());
            } else if (arg == "-m") {
                params.footprintBytes =
                    std::stoull(next()) * 1024 * 1024;
            } else if (arg == "-s") {
                params.seed = std::stoull(next());
            } else {
                usage();
                return 2;
            }
        }
        if (workload_name.empty() || out_path.empty()) {
            usage();
            return 2;
        }
        auto workload = makeWorkload(workload_name, params);
        if (const auto *mix =
                dynamic_cast<const MixWorkload *>(workload.get())) {
            // Expand the mix so the capture's tenant layout (thread
            // split, namespaced device regions) is on record next to
            // the trace file.
            for (const MixTenant &t : mix->tenants())
                std::fputs(describeMixTenant(t).c_str(), stdout);
        }
        const std::uint64_t records = writeTraceLog(out_path, *workload);
        std::printf("wrote %llu records (%d threads, %s, %.1f MB "
                    "footprint) to %s\n",
                    static_cast<unsigned long long>(records),
                    workload->numThreads(), workload->name().c_str(),
                    static_cast<double>(workload->footprintBytes())
                        / (1024.0 * 1024.0),
                    out_path.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "skybyte_tracegen: %s\n", e.what());
        return 1;
    }
    return 0;
}
