/**
 * @file
 * Offline trace analysis: the workload-side statistics the paper uses to
 * motivate SkyByte (Table I's write ratio, Figure 5/6's per-page
 * cacheline-coverage CDFs, hot-page concentration for §III-C's migration
 * policy). Works on any Workload, including TraceLogWorkload replays,
 * and backs the skybyte_traceinfo tool.
 */

#ifndef SKYBYTE_TRACE_TRACE_STATS_H
#define SKYBYTE_TRACE_TRACE_STATS_H

#include <array>
#include <cstdint>
#include <vector>

#include "trace/workload.h"

namespace skybyte {

/** Aggregate statistics of one trace. */
struct TraceSummary
{
    std::uint64_t records = 0;
    std::uint64_t instructions = 0; ///< compute + memory
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::uint64_t deviceAccesses = 0; ///< records in the shared region
    std::uint64_t uniquePages = 0;    ///< distinct shared 4 KB pages

    /** Mean fraction of a page's 64 lines ever touched / written. */
    double meanLinesTouched = 0;
    double meanLinesWritten = 0;

    /**
     * CDF over pages of the fraction of lines touched: bucket i holds
     * the fraction of pages with <= (i+1)*10% of their lines touched
     * (the shape of Figure 5; writtenCdf mirrors Figure 6).
     */
    std::array<double, 10> touchedCdf{};
    std::array<double, 10> writtenCdf{};

    /** Share of device accesses landing on the hottest 10% of pages. */
    double hotTop10PctShare = 0;

    double
    writeRatio() const
    {
        const std::uint64_t mem = memReads + memWrites;
        return mem == 0 ? 0.0
                        : static_cast<double>(memWrites)
                              / static_cast<double>(mem);
    }
};

/**
 * Drain up to @p max_records records from every thread of @p workload
 * (round-robin, mirroring how the simulator interleaves threads) and
 * summarize them. The workload is consumed.
 */
TraceSummary summarizeWorkload(Workload &workload,
                               std::uint64_t max_records = ~0ULL);

/** Render @p summary as the table skybyte_traceinfo prints. */
std::string formatSummary(const TraceSummary &summary,
                          const std::string &name);

} // namespace skybyte

#endif // SKYBYTE_TRACE_TRACE_STATS_H
