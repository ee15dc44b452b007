/**
 * @file
 * Declarative sweep API: a sweep is data, not a loop nest.
 *
 * A SweepSpec names the axes of an experiment — variant, workload, knob
 * values applied through a cfg-mutating setter — and its cross product
 * expands into labeled, self-contained SweepPoints that run on the
 * runSweep() worker pool. Every figure/table/ablation sweep of the
 * paper is registered here under a stable name (registerBuiltinSweeps()
 * in sweep_registry.cc), together with the printer of its paper-style
 * table, so the skybyte_sweep CLI and CI execute the exact same point
 * grids.
 *
 * Sharding: a ShardSpec ("i/N" from --shard or SKYBYTE_SWEEP_SHARD)
 * partitions the expanded points round-robin by index. Shards are
 * disjoint and complete for any N, and each point is seeded solely by
 * its own config, so the union of N shard runs is bit-identical to one
 * unsharded run — the property the mergeable JSON reports
 * (sim/report.h) rely on to recombine CI jobs.
 */

#ifndef SKYBYTE_SIM_SWEEP_H
#define SKYBYTE_SIM_SWEEP_H

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace skybyte {

/** One labeled value along a sweep axis. */
struct AxisValue
{
    std::string label;
    /** Mutates the point (cfg, workload or opt); may be null. */
    std::function<void(SweepPoint &)> apply;
};

/**
 * One named sweep dimension. Axes are applied to each point in
 * declaration order, so an axis that rebuilds the whole config (a
 * variant axis) must precede the knob axes that tweak it.
 */
struct SweepAxis
{
    std::string name;
    std::vector<AxisValue> values;

    /** All value labels in declaration order. */
    std::vector<std::string> labels() const;
};

/**
 * One expanded point: its position in the full cross product, the
 * per-axis value labels, and the fully-specified run.
 */
struct LabeledPoint
{
    std::size_t index = 0;
    std::vector<std::string> labels;
    SweepPoint point;

    /** First-axis label: the result-table row every table prints. */
    const std::string &row() const { return labels.front(); }
    /** Remaining labels joined with '/': the result-table column. */
    std::string col() const;
    /** row()/col(): the stable point id used in report manifests. */
    std::string id() const;
};

struct SweepSpec;
struct SweepExecution;

/**
 * Paper-style table printer: reads a complete (unsharded) execution
 * back through SweepExecution::at() and writes the table to @p out.
 */
using SweepTable = std::function<void(
    const SweepSpec &spec, const SweepExecution &exec, std::FILE *out)>;

/** A named, declarative parameter sweep. */
struct SweepSpec
{
    /** Registry key, e.g. "fig09", "table1", "abl_promotion". */
    std::string name;
    /** One-line description shown by skybyte_sweep --list. */
    std::string title;
    /** Config every point starts from (before any axis applies). */
    std::string baseVariant = "SkyByte-Full";
    /** Default run scale (SKYBYTE_BENCH_INSTR still overrides). */
    std::uint64_t defaultInstrPerThread = 100'000;
    std::vector<SweepAxis> axes;
    /** The figure/table this sweep reproduces; null = none. */
    SweepTable table;

    /** Size of the full cross product. */
    std::size_t pointCount() const;

    /**
     * Expand the cross product in row-major order (first axis
     * slowest). Each point starts as makeSweepPoint(baseVariant, "",
     * opt) and the axes mutate it in declaration order.
     */
    std::vector<LabeledPoint> expand(const ExperimentOptions &opt) const;

    /** ExperimentOptions::fromEnv() with this spec's default scale. */
    ExperimentOptions optionsFromEnv() const;
};

/** @name Axis factories for the common axis kinds.
 * @{ */

/**
 * Axis setting the workload. Values are workload spec strings
 * (trace/workload_spec.h) — a registered name or a parameterized
 * "name:key=value,..." — and double as the axis labels.
 */
SweepAxis workloadAxis(std::vector<std::string> names);

/** All-paper-workloads convenience (Table I order). */
SweepAxis paperWorkloadAxis();

/**
 * Axis rebuilding the config as makeBenchConfig(name) (seed preserved
 * from the point's options). Must precede knob axes.
 */
SweepAxis variantAxis(std::vector<std::string> names);

/** Axis of labeled config mutations (the general form). */
SweepAxis knobAxis(std::string name, std::vector<AxisValue> values);
/** @} */

/** @name Global sweep registry.
 * The paper's sweeps are registered on first use; registerSweep() adds
 * user-defined sweeps (tests, downstream tools) on top.
 * @{ */

/** Register @p spec. @throws std::invalid_argument on duplicate name. */
void registerSweep(SweepSpec spec);

/** Look up a sweep; nullptr when unknown. */
const SweepSpec *findSweep(const std::string &name);

/** All registered sweeps, name-sorted. */
std::vector<const SweepSpec *> registeredSweeps();
/** @} */

/** Deterministic shard selector: shard @p index of @p count. */
struct ShardSpec
{
    std::uint32_t index = 0;
    std::uint32_t count = 1;
};

/**
 * Parse "i/N" (0 <= i < N).
 * @throws std::invalid_argument on malformed input.
 */
ShardSpec parseShard(const std::string &text);

/** SKYBYTE_SWEEP_SHARD, or the full run (0/1) when unset. */
ShardSpec shardFromEnv();

/** Round-robin ownership: shard i of N owns indices i, i+N, i+2N... */
bool shardOwns(const ShardSpec &shard, std::size_t index);

/** The points of one shard run, with results aligned to points. */
struct SweepExecution
{
    /** Points owned by the shard, in full-cross-product index order. */
    std::vector<LabeledPoint> points;
    std::vector<SimResult> results;
    /** Size of the unsharded cross product (the report manifest). */
    std::size_t totalPoints = 0;

    /**
     * Result of the point at (@p row, @p col) — LabeledPoint::row()
     * and col().
     * @throws std::out_of_range when no point carries that label pair.
     */
    const SimResult &at(const std::string &row,
                        const std::string &col) const;
};

/**
 * Expand @p spec and keep only the points @p shard owns, in full
 * cross-product index order. @p totalPoints receives the unsharded
 * point count. Shared by the in-process runner (runSweepShard) and
 * the process-isolated executor (sim/run_executor.h), so both walk
 * the exact same grid.
 */
std::vector<LabeledPoint> expandShard(const SweepSpec &spec,
                                      const ExperimentOptions &opt,
                                      const ShardSpec &shard,
                                      std::size_t &totalPoints);

/**
 * Expand @p spec, keep the shard's points, run them on the runSweep()
 * pool. Results are independent of @p nthreads and of how the points
 * were sharded.
 */
SweepExecution runSweepShard(const SweepSpec &spec,
                             const ExperimentOptions &opt,
                             const ShardSpec &shard = {},
                             int nthreads = 0);

} // namespace skybyte

#endif // SKYBYTE_SIM_SWEEP_H
