/**
 * @file
 * In-process microbenchmark of the set-associative cache (src/cpu/cache.h):
 *
 *  - firstMin: the fill victim scan, scalar against SSE2, on rows of 1, 2
 *    and 4 lane groups (8-, 16- and 32-way sets) holding random distinct
 *    stamps, so where the minimum sits varies from call to call as it
 *    does in a simulation.
 *  - access_fill: SetAssocCache::access, then fill on a miss, over a
 *    seeded random line stream four times the cache's capacity, on the
 *    L1D (16 KB/8-way), L2 (128 KB/32-way) and LLC (2 MB/16-way)
 *    geometries of the benchmark configuration. Built without payload,
 *    as the core and uncore build theirs in default runs.
 *
 * A cache-layer idea (a prefetch, a new probe) can show its effect
 * here before it is tried end to end. No timing gate.
 *
 * Run: ./bench_cache [--benchmark_min_time=...]
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "cpu/cache.h"

namespace skybyte {
namespace {

using cache_lanes::kLanes;

constexpr std::size_t kRows = 4096;

/** kRows rows of @p groups groups of random live stamps. */
std::vector<std::uint16_t>
stampRows(std::uint32_t groups)
{
    Rng rng(0xf125ULL + groups);
    std::vector<std::uint16_t> rows(kRows * groups * kLanes);
    for (std::uint16_t &stamp : rows)
        stamp = static_cast<std::uint16_t>(1 + rng.below(0x7FFE));
    return rows;
}

template <std::uint32_t (*FirstMin)(const std::uint16_t *, std::uint32_t)>
void
BM_FirstMin(benchmark::State &state)
{
    const auto groups = static_cast<std::uint32_t>(state.range(0));
    const std::vector<std::uint16_t> rows = stampRows(groups);
    const std::size_t stride = groups * kLanes;
    std::size_t r = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(FirstMin(&rows[r * stride], groups));
        r = (r + 1) % kRows;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_FirstMin, cache_lanes::firstMinScalar)
    ->Arg(1)->Arg(2)->Arg(4);
#if defined(__SSE2__)
BENCHMARK_TEMPLATE(BM_FirstMin, cache_lanes::firstMinSse2)
    ->Arg(1)->Arg(2)->Arg(4);
#endif

/** state.range(0) KB, state.range(1) ways. */
void
BM_AccessFill(benchmark::State &state)
{
    SetAssocCache cache(static_cast<std::uint64_t>(state.range(0)) * 1024,
                        static_cast<std::uint32_t>(state.range(1)), false);
    const std::uint64_t lines = 4ULL * state.range(0) * 1024
                                / kCachelineBytes;
    Rng rng(0xcac4eULL);
    std::vector<Addr> stream(1 << 20);
    for (Addr &a : stream)
        a = rng.below(lines) * kCachelineBytes;
    std::size_t i = 0;
    std::uint64_t writebacks = 0;
    for (auto _ : state) {
        const Addr a = stream[i];
        const bool write = (a >> 6 & 3) == 0; // a quarter of the lines
        if (!cache.access(a, write))
            writebacks += cache.fill(a, write).writeback ? 1 : 0;
        i = (i + 1) & (stream.size() - 1);
    }
    benchmark::DoNotOptimize(writebacks);
    state.SetItemsProcessed(state.iterations());
    state.counters["hit_rate"] =
        static_cast<double>(cache.hits())
        / static_cast<double>(cache.hits() + cache.misses());
}
BENCHMARK(BM_AccessFill)
    ->ArgNames({"kb", "ways"})
    ->Args({16, 8})
    ->Args({128, 32})
    ->Args({2048, 16});

} // namespace
} // namespace skybyte

BENCHMARK_MAIN();
