/**
 * @file
 * Offline trace inspector: prints the workload-side statistics the
 * paper's motivation section is built on (write ratio as in Table I,
 * per-page cacheline-coverage CDFs as in Figures 5/6, and hot-page
 * concentration relevant to §III-C's migration policy) for either an
 * STRC capture produced by skybyte_tracegen or a named synthetic
 * workload generated on the fly.
 *
 *   skybyte_traceinfo <trace-file>
 *   skybyte_traceinfo -w <workload-spec> [-n threads] [-i instr] [-m mb]
 *
 * <workload-spec> is any registered workload spec string ("ycsb",
 * "scan:stride=256", ...). For a capture, a block/index/compression
 * stats section is printed ahead of the workload statistics.
 */

#include <cstdio>
#include <stdexcept>
#include <string>

#include "trace/mix_workload.h"
#include "trace/trace_log/trace_log.h"
#include "trace/trace_log/trace_log_workload.h"
#include "trace/trace_stats.h"
#include "trace/workload.h"

using namespace skybyte;

namespace {

/** Decode every block once to report the storage-side numbers the
 *  format exists for: seekability (blocks + index) and compression. */
void
printTraceLogStats(const std::string &path)
{
    TraceLogReader reader(path);
    std::uint64_t blocks = 0;
    std::uint64_t records = 0;
    std::uint64_t raw_bytes = 0;
    std::uint64_t stored_bytes = 0;
    std::uint64_t compressed_blocks = 0;
    for (int tid = 0; tid < reader.numThreads(); ++tid) {
        for (std::uint64_t b = 0; b < reader.blockCount(tid); ++b) {
            const DecodedBlock block = reader.readBlock(tid, b);
            ++blocks;
            records += block.records.size();
            raw_bytes += block.rawBytes;
            stored_bytes += block.storedBytes;
            compressed_blocks += block.compressed ? 1 : 0;
        }
    }
    const double mb = 1024.0 * 1024.0;
    std::printf("STRC trace log %s\n", path.c_str());
    std::printf("  %d thread(s), %llu block(s) of <= %u records, %llu"
                " records total\n",
                reader.numThreads(),
                static_cast<unsigned long long>(blocks),
                reader.blockRecords(),
                static_cast<unsigned long long>(records));
    for (int tid = 0; tid < reader.numThreads(); ++tid) {
        std::printf("  thread %d: %llu records in %llu block(s)\n", tid,
                    static_cast<unsigned long long>(
                        reader.totalRecords(tid)),
                    static_cast<unsigned long long>(
                        reader.blockCount(tid)));
    }
    std::printf("  payload %.2f MB raw -> %.2f MB stored (%.2fx, %llu/"
                "%llu block(s) compressed), file %.2f MB\n",
                static_cast<double>(raw_bytes) / mb,
                static_cast<double>(stored_bytes) / mb,
                stored_bytes > 0 ? static_cast<double>(raw_bytes)
                                       / static_cast<double>(stored_bytes)
                                 : 0.0,
                static_cast<unsigned long long>(compressed_blocks),
                static_cast<unsigned long long>(blocks),
                static_cast<double>(reader.fileSize()) / mb);
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: skybyte_traceinfo <trace-file>\n"
                 "       skybyte_traceinfo -w <workload-spec>"
                 " [-n threads]"
                 " [-i instr-per-thread] [-m footprint-mb] [-s seed]\n"
                 "co-location: -w \"mix:tenant=spec[;tenant=spec]...\""
                 " prints the per-tenant layout\n"
                 "registered workloads:");
    for (const std::string &name : registeredWorkloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_path;
    std::string workload_name;
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
            } else if (arg == "-n") {
                params.numThreads = std::stoi(next());
            } else if (arg == "-i") {
                params.instrPerThread = std::stoull(next());
            } else if (arg == "-m") {
                params.footprintBytes =
                    std::stoull(next()) * 1024 * 1024;
            } else if (arg == "-s") {
                params.seed = std::stoull(next());
            } else if (arg[0] != '-') {
                trace_path = arg;
            } else {
                usage();
                return 2;
            }
        }
        if (trace_path.empty() == workload_name.empty()) {
            usage(); // need exactly one source
            return 2;
        }
        std::unique_ptr<Workload> workload;
        std::string name;
        if (!trace_path.empty()) {
            printTraceLogStats(trace_path);
            workload = std::make_unique<TraceLogWorkload>(trace_path);
            name = trace_path;
        } else {
            workload = makeWorkload(workload_name, params);
            name = workload_name; // full spec text, not just the name
        }
        if (const auto *mix =
                dynamic_cast<const MixWorkload *>(workload.get())) {
            // Expand the mix: which threads and device window each
            // tenant owns, so the combined distributions below can be
            // read against the tenant layout.
            std::printf("mix of %zu tenant(s), %d threads total:\n",
                        mix->tenants().size(), mix->numThreads());
            for (const MixTenant &t : mix->tenants()) {
                std::fputs("  ", stdout);
                std::fputs(describeMixTenant(t).c_str(), stdout);
            }
        }
        const TraceSummary summary = summarizeWorkload(*workload);
        std::fputs(formatSummary(summary, name).c_str(), stdout);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "skybyte_traceinfo: %s\n", e.what());
        return 1;
    }
    return 0;
}
