/**
 * @file
 * Result reporting: human-readable summary and JSON export of a
 * SimResult (the artifact writes result files per run; downstream
 * tooling wants machine-readable output), plus the mergeable sweep
 * report format that lets sharded sweep runs recombine.
 *
 * Sweep reports are mergeable at the byte level: each point entry is
 * serialized once (sweepEntryJson) and carried verbatim through
 * parse/merge, and the writer is fully deterministic, so merging the N
 * shard reports of a sweep reproduces the unsharded report
 * bit-identically — CI can diff the two to prove a fan-out ran the
 * same experiment.
 */

#ifndef SKYBYTE_SIM_REPORT_H
#define SKYBYTE_SIM_REPORT_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/system.h"

namespace skybyte {

/** Write a multi-line human-readable summary. */
void printSummary(const SimResult &res, std::ostream &out);

/**
 * Escape '"' and '\\' for embedding @p text in a JSON string. Every
 * free-form string a report or run-dir journal writes (labels, specs,
 * point ids, failure details) goes through it; the readers unescape.
 */
std::string jsonEscape(const std::string &text);

/**
 * Serialize every scalar field plus the latency/locality CDFs as JSON.
 * Deterministic key order; no external dependencies.
 */
std::string toJson(const SimResult &res);

/**
 * Write toJson() to @p path crash-safely (write-temp-then-rename, so
 * an interrupted run never leaves a truncated JSON file).
 * @throws std::runtime_error on failure.
 */
void writeJsonFile(const SimResult &res, const std::string &path);

/**
 * One point of a sweep report: its index in the full cross product and
 * the verbatim serialized entry object. The text is the unit of
 * merging — parse and merge never re-serialize a result, so doubles
 * survive untouched.
 */
struct SweepReportEntry
{
    std::size_t index = 0;
    std::string text;
};

/**
 * Failure-manifest record of one point that produced no result: how it
 * ended ("failed" | "timeout" | "skipped"), after how many attempts,
 * and the last exit detail ("signal 9", "exit 7", "killed after
 * 5000 ms", ...). Written by the hardened executor
 * (sim/run_executor.h) so a sweep with a permanently failing point
 * still yields a usable — explicitly partial — report.
 */
struct SweepPointFailure
{
    std::size_t index = 0;
    std::string id;
    std::string status;
    std::uint32_t attempts = 0;
    std::string detail;
};

/** A (possibly partial) sweep run: manifest + per-point results. */
struct SweepReport
{
    std::string sweep;
    std::size_t totalPoints = 0;
    /** Which shard this report covers; 0/1 = a complete run. */
    std::uint32_t shardIndex = 0;
    std::uint32_t shardCount = 1;
    /** Entries sorted by index; a shard holds only the indices it owns. */
    std::vector<SweepReportEntry> entries;
    /**
     * Failure manifest, sorted by index, disjoint from entries. Empty
     * for a fully successful run — and an empty manifest is not
     * serialized at all, so complete reports keep the exact byte
     * layout the merge/fingerprint identities rely on.
     */
    std::vector<SweepPointFailure> failures;
};

/** Serialize one point entry (the stable layout merging relies on). */
std::string sweepEntryJson(std::size_t index, const std::string &id,
                           const SimResult &res);

/**
 * Same entry layout, but from an already-serialized toJson(SimResult)
 * text (trailing newline optional). The isolated executor uses this to
 * embed child-written result bytes verbatim, which is what makes an
 * isolated run's report byte-identical to an in-process run's.
 */
std::string sweepEntryJsonFromText(std::size_t index,
                                   const std::string &id,
                                   const std::string &resultJson);

/** Serialize a sweep report (deterministic byte layout). */
std::string toJson(const SweepReport &report);

/**
 * Parse a sweep report, keeping each point entry's text verbatim.
 * @throws std::runtime_error on malformed input.
 */
SweepReport parseSweepReport(const std::string &text);

/**
 * Combine shard reports of one sweep into the complete report
 * (shard 0/1). Entry text is reused verbatim, so the result is
 * byte-identical to an unsharded run of the same sweep. Partial shards
 * merge too: failure-manifest records count toward coverage, so every
 * point index must be covered exactly once by an entry or a failure —
 * a genuinely absent index (a lost shard) is still an error.
 * @throws std::runtime_error on sweep/total mismatch, duplicate
 *         indices, or indices covered by neither entries nor failures.
 */
SweepReport mergeSweepReports(const std::vector<SweepReport> &shards);

/**
 * Tolerance-based comparison of two sweep reports (the regression gate
 * that replaces byte-exact diffs, which a runner libm/toolchain update
 * can break through low-order float digits).
 *
 * Matched point entries are compared by diffBenchJson()
 * (sim/benchdiff.h): non-numeric text (keys, ids, structure) must match
 * exactly, whitespace aside; every numeric value — scalars and CDF
 * points alike — may differ by at most @p tol_pct percent relative
 * difference (0 = numerically equal, which still tolerates formatting
 * differences like 1e3 vs 1000). A drift names the number by its
 * dotted key path within the entry ("result.committed_instructions").
 *
 * Partial reports compare gracefully: points with entries in both
 * reports are compared as usual, and a point that succeeded in
 * one report but failed (or is absent) in the other — or whose failure
 * status differs — is reported as a drift instead of throwing. Two
 * complete reports with different entry counts remain incomparable.
 *
 * @return human-readable drift descriptions, empty when the reports
 *         agree within tolerance
 * @throws std::runtime_error when the reports are structurally
 *         incomparable (different sweep, point count, or entry layout)
 */
std::vector<std::string> diffSweepReports(const SweepReport &a,
                                          const SweepReport &b,
                                          double tol_pct);

} // namespace skybyte

#endif // SKYBYTE_SIM_REPORT_H
