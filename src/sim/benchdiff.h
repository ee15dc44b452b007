/**
 * @file
 * Tolerance-aware comparison of two JSON documents: the one diff
 * engine behind `skybyte_sweep --diff`, which compares plain JSON
 * documents (the BENCH_*.json files the bench/ programs emit, gated by
 * the CI bench-baselines job) through it directly and each pair of
 * sweep report entries through sim/report.h diffSweepReports.
 *
 * Both documents are lexed into a structural skeleton plus a sequence
 * of numbers, the skeletons must match exactly (a renamed or added
 * metric is a structural error, not a drift; whitespace is ignored),
 * and paired numbers compare under a relative tolerance.
 * Each number carries its dotted JSON key path ("scenarios.near.speedup")
 * so drifts are reported by name and a key filter can gate only the
 * machine-independent ratio metrics while ignoring absolute
 * events-per-second throughput that varies with the host.
 */

#ifndef SKYBYTE_SIM_BENCHDIFF_H
#define SKYBYTE_SIM_BENCHDIFF_H

#include <string>
#include <vector>

namespace skybyte {

/** One numeric drift beyond tolerance. */
struct BenchDrift
{
    std::string path; ///< dotted key path of the number
    double baseline = 0;
    double current = 0;
    double relPct = 0; ///< relative difference, percent
    /** Current is worse (smaller) than baseline — higher-is-better
     *  metrics only; callers using --regress-only filter on this. */
    bool regression = false;
};

struct BenchDiffOptions
{
    /** Allowed relative drift, percent. */
    double tolPct = 5.0;
    /**
     * Gate only numbers whose dotted path contains one of these
     * substrings (empty = every number). Lets CI pin ratio metrics
     * ("speedup") while ignoring host-dependent absolute throughput.
     */
    std::vector<std::string> keys;
    /** Only count drifts where current < baseline (lower = worse). */
    bool regressOnly = false;
};

/**
 * Compare two bench JSON documents.
 * @return drifts beyond tolerance (empty = within tolerance).
 * @throws std::runtime_error when the documents differ structurally
 *         (different keys, layout, or string values).
 */
std::vector<BenchDrift> diffBenchJson(const std::string &baseline,
                                      const std::string &current,
                                      const BenchDiffOptions &opt);

/** One-line rendering of @p drift for reports and CI logs. */
std::string formatBenchDrift(const BenchDrift &drift,
                             const BenchDiffOptions &opt);

} // namespace skybyte

#endif // SKYBYTE_SIM_BENCHDIFF_H
