/**
 * @file
 * Trace-replay pipeline benchmark: records/sec of the flat SKYTRC01
 * replay (eager whole-file load, then iterate) vs the streaming STRC
 * trace-log replay (background block decode into per-thread rings,
 * O(blocks-in-flight) memory). Both paths drain the same capture of
 * the same workload through the TraceCursor contract, so the numbers
 * isolate the pipeline, not the generator.
 *
 * The table reports both rates, the stored size of each encoding, and
 * the peak number of simultaneously live decoded STRC blocks — the
 * bounded-memory witness (flat replay holds the whole trace; the
 * streaming path a handful of blocks). `--json <path>` emits the
 * machine-readable report CI archives as BENCH_trace_replay.json.
 *
 * Scale knob: SKYBYTE_BENCH_TRACE_INSTR (instructions per thread,
 * default 400k at 4 threads).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "common/fs.h"
#include "support.h"
#include "trace/trace_file.h"
#include "trace/trace_log/trace_log.h"
#include "trace/trace_log/trace_log_workload.h"
#include "trace/workload.h"

using namespace skybyte;

namespace {

struct Corpus
{
    std::string flatPath;
    std::string logPath;
    std::uint64_t records = 0;
    int threads = 0;
};

/** Rate + footprint results, keyed by path name ("flat"/"tracelog"). */
struct PathResult
{
    double recordsPerSec = 0;
    std::uint64_t fileBytes = 0;
    std::uint64_t peakBlocks = 0;
};

PathResult g_flat;
PathResult g_log;

std::string
tmpDir()
{
    const char *env = std::getenv("TMPDIR");
    return env != nullptr && *env != '\0' ? env : "/tmp";
}

/** Capture one workload in both encodings; returns the file pair. */
Corpus
buildCorpus()
{
    Corpus c;
    c.flatPath = tmpDir() + "/bench_trace_replay.trace";
    c.logPath = tmpDir() + "/bench_trace_replay.strc";
    WorkloadParams params;
    params.numThreads = 4;
    params.instrPerThread = 400'000;
    if (const char *env = std::getenv("SKYBYTE_BENCH_TRACE_INSTR"))
        params.instrPerThread = std::strtoull(env, nullptr, 10);
    auto workload = makeWorkload("zipf:theta=0.99", params);
    c.threads = workload->numThreads();
    c.records = writeTraceFile(c.flatPath, *workload);
    auto workload2 = makeWorkload("zipf:theta=0.99", params);
    writeTraceLog(c.logPath, *workload2);
    return c;
}

/** Drain every thread of @p workload; returns records consumed. */
std::uint64_t
drain(Workload &workload)
{
    std::uint64_t n = 0;
    TraceRecord rec{};
    for (int tid = 0; tid < workload.numThreads(); ++tid) {
        TraceCursor cur(workload, tid);
        while (cur.next(rec)) {
            benchmark::DoNotOptimize(rec.vaddr);
            ++n;
        }
    }
    return n;
}

/** Construct + fully drain one replay; returns records/sec including
 *  the load/decode cost (that asymmetry is the point). */
template <typename MakeFn>
double
timeReplay(const MakeFn &make)
{
    const auto t0 = std::chrono::steady_clock::now();
    auto workload = make();
    const std::uint64_t n = drain(*workload);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    return secs > 0 ? static_cast<double>(n) / secs : 0.0;
}

void
benchFlat(benchmark::State &state, const Corpus &corpus)
{
    double best = 0;
    for (auto _ : state) {
        best = std::max(best, timeReplay([&] {
            return std::make_unique<TraceFileWorkload>(corpus.flatPath);
        }));
        state.SetItemsProcessed(
            state.items_processed()
            + static_cast<std::int64_t>(corpus.records));
    }
    g_flat.recordsPerSec = std::max(g_flat.recordsPerSec, best);
    state.counters["records_per_sec"] = best;
}

void
benchTraceLog(benchmark::State &state, const Corpus &corpus)
{
    double best = 0;
    for (auto _ : state) {
        resetPeakLiveDecodedBlocks();
        best = std::max(best, timeReplay([&] {
            return std::make_unique<TraceLogWorkload>(corpus.logPath);
        }));
        g_log.peakBlocks =
            std::max(g_log.peakBlocks, peakLiveDecodedBlocks());
        state.SetItemsProcessed(
            state.items_processed()
            + static_cast<std::int64_t>(corpus.records));
    }
    g_log.recordsPerSec = std::max(g_log.recordsPerSec, best);
    state.counters["records_per_sec"] = best;
    state.counters["peak_decoded_blocks"] =
        static_cast<double>(g_log.peakBlocks);
}

std::uint64_t
fileSizeOf(const std::string &path)
{
    return readFileText(path).size();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path = bench::extractJsonPath(argc, argv);
    const Corpus corpus = buildCorpus();
    g_flat.fileBytes = fileSizeOf(corpus.flatPath);
    g_log.fileBytes = fileSizeOf(corpus.logPath);

    benchmark::RegisterBenchmark("replay/flat",
                                 [&](benchmark::State &s) {
                                     benchFlat(s, corpus);
                                 });
    benchmark::RegisterBenchmark("replay/tracelog",
                                 [&](benchmark::State &s) {
                                     benchTraceLog(s, corpus);
                                 });

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    const double ratio = g_flat.recordsPerSec > 0
                             ? g_log.recordsPerSec / g_flat.recordsPerSec
                             : 0.0;
    const double compression =
        g_log.fileBytes > 0
            ? static_cast<double>(g_flat.fileBytes)
                  / static_cast<double>(g_log.fileBytes)
            : 0.0;
    std::printf("\n================================================================\n");
    std::printf("Trace replay: flat eager load vs streaming STRC decode"
                " (%llu records, %d threads)\n",
                static_cast<unsigned long long>(corpus.records),
                corpus.threads);
    std::printf("================================================================\n");
    std::printf("%-10s %16s %14s %20s\n", "path", "records/sec",
                "file bytes", "peak decoded blocks");
    std::printf("%-10s %16.0f %14llu %20s\n", "flat",
                g_flat.recordsPerSec,
                static_cast<unsigned long long>(g_flat.fileBytes),
                "(whole trace)");
    std::printf("%-10s %16.0f %14llu %20llu\n", "tracelog",
                g_log.recordsPerSec,
                static_cast<unsigned long long>(g_log.fileBytes),
                static_cast<unsigned long long>(g_log.peakBlocks));
    std::printf("tracelog/flat rate %.2fx, on-disk compression %.2fx\n",
                ratio, compression);

    if (!json_path.empty()) {
        // Archived per commit by the CI bench-baselines job, like
        // BENCH_kernel_hotpath.json / BENCH_request_path.json.
        std::ostringstream out;
        out << "{\n  \"bench\": \"trace_replay\",\n"
            << "  \"unit\": \"records_per_sec\",\n"
            << "  \"records\": " << corpus.records << ",\n"
            << "  \"paths\": {\n"
            << "    \"flat\": {\"records_per_sec\": "
            << g_flat.recordsPerSec << ", \"file_bytes\": "
            << g_flat.fileBytes << "},\n"
            << "    \"tracelog\": {\"records_per_sec\": "
            << g_log.recordsPerSec << ", \"file_bytes\": "
            << g_log.fileBytes << ", \"peak_decoded_blocks\": "
            << g_log.peakBlocks << "}\n  },\n"
            << "  \"rate_ratio\": " << ratio << ",\n"
            << "  \"compression\": " << compression << "\n}\n";
        try {
            writeFileAtomic(json_path, out.str());
            std::fprintf(stderr, "wrote %s\n", json_path.c_str());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "cannot write %s: %s\n",
                         json_path.c_str(), e.what());
        }
    }
    std::remove(corpus.flatPath.c_str());
    std::remove(corpus.logPath.c_str());
    return 0;
}
