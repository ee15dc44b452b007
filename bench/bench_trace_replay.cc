/**
 * @file
 * Trace-replay pipeline benchmark: records/sec of the streaming STRC
 * replay (each block decoded on demand by the refill that reaches it,
 * one live block per thread). The capture is drained through the
 * TraceCursor contract, so the number isolates the pipeline, not the
 * generator.
 *
 * The table reports the rate, the capture's size on disk, its
 * compression against 16 raw bytes per record, and the peak number
 * of simultaneously live decoded blocks — the bounded-memory witness
 * (a handful of blocks however long the trace). `--json <path>`
 * emits the machine-readable report CI archives as
 * BENCH_trace_replay.json.
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
#include "trace/trace_log/trace_log.h"
#include "trace/trace_log/trace_log_workload.h"
#include "trace/workload.h"

using namespace skybyte;

namespace {

/** Raw bytes per record: the in-memory TraceRecord (16 B). */
constexpr std::uint64_t kRawRecordBytes = sizeof(TraceRecord);

struct Corpus
{
    std::string path;
    std::uint64_t records = 0;
    int threads = 0;
};

/** Best rate and bounded-memory witness over all iterations. */
struct Result
{
    double recordsPerSec = 0;
    std::uint64_t fileBytes = 0;
    std::uint64_t peakBlocks = 0;
};

Result g_log;

std::string
tmpDir()
{
    const char *env = std::getenv("TMPDIR");
    return env != nullptr && *env != '\0' ? env : "/tmp";
}

/** Capture one workload to an STRC file. */
Corpus
buildCorpus()
{
    Corpus c;
    c.path = tmpDir() + "/bench_trace_replay.strc";
    WorkloadParams params;
    params.numThreads = 4;
    params.instrPerThread = 400'000;
    if (const char *env = std::getenv("SKYBYTE_BENCH_TRACE_INSTR"))
        params.instrPerThread = std::strtoull(env, nullptr, 10);
    auto workload = makeWorkload("zipf:theta=0.99", params);
    c.threads = workload->numThreads();
    c.records = writeTraceLog(c.path, *workload);
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

/** Open + fully drain one replay; returns records/sec including the
 *  header/index parse and every block decode. */
double
timeReplay(const std::string &path)
{
    const auto t0 = std::chrono::steady_clock::now();
    TraceLogWorkload workload(path);
    const std::uint64_t n = drain(workload);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    return secs > 0 ? static_cast<double>(n) / secs : 0.0;
}

void
benchTraceLog(benchmark::State &state, const Corpus &corpus)
{
    double best = 0;
    for (auto _ : state) {
        resetPeakLiveDecodedBlocks();
        best = std::max(best, timeReplay(corpus.path));
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
    g_log.fileBytes = fileSizeOf(corpus.path);

    benchmark::RegisterBenchmark("replay/tracelog",
                                 [&](benchmark::State &s) {
                                     benchTraceLog(s, corpus);
                                 });

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    const double compression =
        g_log.fileBytes > 0
            ? static_cast<double>(corpus.records * kRawRecordBytes)
                  / static_cast<double>(g_log.fileBytes)
            : 0.0;
    std::printf("\n================================================================\n");
    std::printf("Trace replay: streaming STRC decode"
                " (%llu records, %d threads)\n",
                static_cast<unsigned long long>(corpus.records),
                corpus.threads);
    std::printf("================================================================\n");
    std::printf("%-10s %16s %14s %20s %12s\n", "path", "records/sec",
                "file bytes", "peak decoded blocks", "compression");
    std::printf("%-10s %16.0f %14llu %20llu %11.2fx\n", "tracelog",
                g_log.recordsPerSec,
                static_cast<unsigned long long>(g_log.fileBytes),
                static_cast<unsigned long long>(g_log.peakBlocks),
                compression);

    if (!json_path.empty()) {
        // Archived per commit by the CI bench-baselines job, like
        // BENCH_kernel_hotpath.json / BENCH_request_path.json.
        std::ostringstream out;
        out << "{\n  \"bench\": \"trace_replay\",\n"
            << "  \"unit\": \"records_per_sec\",\n"
            << "  \"records\": " << corpus.records << ",\n"
            << "  \"paths\": {\n"
            << "    \"tracelog\": {\"records_per_sec\": "
            << g_log.recordsPerSec << ", \"file_bytes\": "
            << g_log.fileBytes << ", \"peak_decoded_blocks\": "
            << g_log.peakBlocks << "}\n  },\n"
            << "  \"compression\": " << compression << "\n}\n";
        try {
            writeFileAtomic(json_path, out.str());
            std::fprintf(stderr, "wrote %s\n", json_path.c_str());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "cannot write %s: %s\n",
                         json_path.c_str(), e.what());
        }
    }
    std::remove(corpus.path.c_str());
    return 0;
}
