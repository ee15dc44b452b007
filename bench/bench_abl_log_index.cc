/**
 * @file
 * Ablation: the write log's two-level index (§III-B, Figure 12) vs a
 * flat single-level hash keyed by line address. Measures append and
 * lookup throughput, the per-page enumeration compaction depends on
 * (one line mask per page, so enumeration sums popcounts), and the
 * index memory footprint in the paper's accounting (the motivation for
 * the resizable second-level tables: 32 MB worst case instead of
 * 272 MB).
 */

#include <benchmark/benchmark.h>

#include <bit>
#include <unordered_map>

#include "common/rng.h"
#include "core/write_log.h"

namespace skybyte {
namespace {

constexpr std::uint64_t kLogBytes = 4ULL * 1024 * 1024;
constexpr std::uint64_t kPages = 4096;

void
BM_TwoLevelAppend(benchmark::State &state)
{
    const auto lines_per_page = static_cast<std::uint64_t>(state.range(0));
    Rng rng(7);
    for (auto _ : state) {
        WriteLogBuffer buf(kLogBytes, false);
        for (std::uint64_t i = 0; i < kLogBytes / kCachelineBytes; ++i) {
            const std::uint64_t page = rng.below(kPages);
            const std::uint64_t off = rng.below(lines_per_page);
            buf.append(page * kPageBytes + off * kCachelineBytes, i);
        }
        state.counters["index_bytes"] =
            static_cast<double>(buf.indexBytes());
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(kLogBytes
                                                        / kCachelineBytes));
}
BENCHMARK(BM_TwoLevelAppend)->Arg(1)->Arg(8)->Arg(64);

/**
 * The flat single-level alternative: one std::unordered_map entry per
 * logged line, keyed by line address.
 */
void
BM_LineKeyedAppend(benchmark::State &state)
{
    const auto lines_per_page = static_cast<std::uint64_t>(state.range(0));
    Rng rng(7);
    for (auto _ : state) {
        std::unordered_map<Addr, std::uint32_t> index;
        for (std::uint64_t i = 0; i < kLogBytes / kCachelineBytes; ++i) {
            const std::uint64_t page = rng.below(kPages);
            const std::uint64_t off = rng.below(lines_per_page);
            index[page * kPageBytes + off * kCachelineBytes] =
                static_cast<std::uint32_t>(i);
        }
        // ~48 B per unordered_map node on this ABI vs 16 B + 4 B/slot.
        state.counters["index_bytes"] =
            static_cast<double>(index.size() * 48);
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(kLogBytes
                                                        / kCachelineBytes));
}
BENCHMARK(BM_LineKeyedAppend)->Arg(1)->Arg(8)->Arg(64);

void
BM_TwoLevelLookup(benchmark::State &state)
{
    WriteLogBuffer buf(kLogBytes, false);
    Rng rng(7);
    for (std::uint64_t i = 0; i < kLogBytes / kCachelineBytes; ++i) {
        buf.append(rng.below(kPages) * kPageBytes
                       + rng.below(kLinesPerPage) * kCachelineBytes,
                   i);
    }
    for (auto _ : state) {
        const Addr addr = rng.below(kPages) * kPageBytes
                          + rng.below(kLinesPerPage) * kCachelineBytes;
        benchmark::DoNotOptimize(buf.lookup(addr));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TwoLevelLookup);

/**
 * Compaction enumeration: count all logged lines page by page. With the
 * two-level index this is one first-level scan over per-page line
 * masks; a flat index would need a full-log scan or a sort per
 * compaction.
 */
void
BM_TwoLevelPageEnumeration(benchmark::State &state)
{
    WriteLogBuffer buf(kLogBytes, false);
    Rng rng(7);
    for (std::uint64_t i = 0; i < kLogBytes / kCachelineBytes; ++i) {
        buf.append(rng.below(kPages) * kPageBytes
                       + rng.below(kLinesPerPage) * kCachelineBytes,
                   i);
    }
    for (auto _ : state) {
        std::uint64_t lines = 0;
        buf.forEachPage([&](std::uint64_t, std::uint64_t mask) {
            lines += static_cast<std::uint64_t>(std::popcount(mask));
        });
        benchmark::DoNotOptimize(lines);
    }
}
BENCHMARK(BM_TwoLevelPageEnumeration);

} // namespace
} // namespace skybyte

BENCHMARK_MAIN();
