/**
 * @file
 * The paper's experiment grids as registered SweepSpecs — every figure,
 * table and ablation sweep under a stable name — each beside the
 * printer of its paper-style table (SweepSpec::table). skybyte_sweep
 * and CI execute these shared definitions, so a grid change lands
 * everywhere at once, and `skybyte_sweep --run <name>` prints the table
 * after writing the report.
 *
 * Axis order is apply order: axes that rebuild the config (variant and
 * combined config axes) come before knob axes that tweak it. A printer
 * reads each point back by (row, col) through SweepExecution::at(), so
 * a label typo throws instead of printing an empty result.
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "sim/sweep.h"
#include "trace/workload.h"

namespace skybyte {
namespace detail {

void registerSweepUnlocked(SweepSpec spec); // sweep.cc

namespace {

/** @name Table helpers shared by the printers.
 * @{ */

using Metric = std::function<double(const SimResult &)>;

double
execTicks(const SimResult &r)
{
    return static_cast<double>(r.execTime);
}

/** Data-path pages programmed, +1 to avoid 0/0 on tiny runs. */
double
flashPrograms(const SimResult &r)
{
    return static_cast<double>(r.flashHostPrograms) + 1.0;
}

double
promotions(const SimResult &r)
{
    return static_cast<double>(r.promotions);
}

/** @p x over @p base, 0 when the base is empty. */
double
ratio(double x, double base)
{
    return base > 0 ? x / base : 0.0;
}

std::vector<std::string>
axisLabels(const SweepSpec &spec, std::size_t axis)
{
    return spec.axes.at(axis).labels();
}

/** Print a separator + table title. */
void
printHeader(std::FILE *out, const std::string &title)
{
    const char *rule =
        "================================================================";
    std::fprintf(out, "\n%s\n%s\n%s\n", rule, title.c_str(), rule);
}

/** Titled matrix of @p value over rows = axis 0, columns = axis 1. */
void
printMatrix(std::FILE *out, const SweepSpec &spec,
            const SweepExecution &exec, const std::string &title,
            const Metric &value, const char *fmt = "%12.0f")
{
    printHeader(out, title);
    const std::vector<std::string> cols = axisLabels(spec, 1);
    std::fprintf(out, "%-16s", "workload");
    for (const auto &c : cols)
        std::fprintf(out, "%12s", c.substr(0, 12).c_str());
    std::fprintf(out, "\n");
    for (const auto &r : axisLabels(spec, 0)) {
        std::fprintf(out, "%-16s", r.c_str());
        for (const auto &c : cols)
            std::fprintf(out, fmt, value(exec.at(r, c)));
        std::fprintf(out, "\n");
    }
}

/**
 * Titled rows (axis 0) of @p value normalized to the @p baseline
 * column of axis 1, plus a geometric-mean row across the rows.
 */
void
printNormalized(std::FILE *out, const SweepSpec &spec,
                const SweepExecution &exec, const std::string &title,
                const std::string &baseline,
                const Metric &value = execTicks)
{
    printHeader(out, title);
    const std::vector<std::string> variants = axisLabels(spec, 1);
    std::fprintf(out, "%-16s", "workload");
    for (const auto &v : variants)
        std::fprintf(out, "%14s", v.substr(0, 14).c_str());
    std::fprintf(out, "\n");
    std::vector<std::vector<double>> norm(variants.size());
    for (const auto &w : axisLabels(spec, 0)) {
        std::fprintf(out, "%-16s", w.c_str());
        const double base = value(exec.at(w, baseline));
        for (std::size_t i = 0; i < variants.size(); ++i) {
            const double n = ratio(value(exec.at(w, variants[i])), base);
            norm[i].push_back(n);
            std::fprintf(out, "%14.3f", n);
        }
        std::fprintf(out, "\n");
    }
    std::fprintf(out, "%-16s", "geo.mean");
    for (const std::vector<double> &column : norm)
        std::fprintf(out, "%14.3f", geoMean(column));
    std::fprintf(out, "\n");
    std::fprintf(out, "(normalized to %s; lower is better)\n",
                 baseline.c_str());
}

/** A table that is just printNormalized() of execution time. */
SweepTable
normalizedExecTable(std::string title, std::string baseline)
{
    return [title = std::move(title), baseline = std::move(baseline)](
               const SweepSpec &spec, const SweepExecution &exec,
               std::FILE *out) {
        printNormalized(out, spec, exec, title, baseline);
    };
}
/** @} */

/**
 * Fig 9: sensitivity of the coordinated context-switch trigger
 * threshold (2-80 us) on SkyByte-Full. Paper: 2 us (the measured
 * context-switch overhead) is best since flash reads (3 us) already
 * exceed it; larger thresholds forfeit switch opportunities and
 * degrade up to ~2x.
 */
SweepSpec
fig09()
{
    SweepSpec s;
    s.name = "fig09";
    s.title = "context-switch trigger threshold sensitivity (2-80 us)";
    s.axes.push_back(
        workloadAxis({"bc", "bfs-dense", "srad", "tpcc"}));
    SweepAxis axis{"cs_threshold_us", {}};
    for (const double us : {2.0, 10.0, 20.0, 40.0, 60.0, 80.0}) {
        axis.values.push_back(
            {std::to_string(static_cast<int>(us)), [us](SweepPoint &p) {
                 p.cfg.policy.csThreshold = usToTicks(us);
             }});
    }
    s.axes.push_back(std::move(axis));
    s.table = normalizedExecTable(
        "Figure 9: normalized execution time vs context switch trigger "
        "threshold (us), 2us = 1.0",
        "2");
    return s;
}

/**
 * Fig 10 table: thread scheduling policies (RR / Random / CFS) with the
 * execution-time breakdown (context switch / compute-bound /
 * memory-bound). Paper: the three policies perform similarly because
 * all threads are I/O bound.
 */
void
fig10Table(const SweepSpec &spec, const SweepExecution &exec,
           std::FILE *out)
{
    printHeader(out, "Figure 10: scheduling policies — normalized exec "
                     "time and breakdown (ctx/comp/mem %)");
    std::fprintf(out, "%-10s %-8s %10s %8s %8s %8s\n", "workload",
                 "policy", "norm.time", "ctx%", "comp%", "mem%");
    for (const auto &w : axisLabels(spec, 0)) {
        const double base = execTicks(exec.at(w, "RR"));
        for (const auto &name : axisLabels(spec, 1)) {
            const SimResult &r = exec.at(w, name);
            const double busy = static_cast<double>(
                r.computeTicks + r.memStallTicks + r.ctxSwitchTicks);
            std::fprintf(
                out, "%-10s %-8s %10.3f %8.1f %8.1f %8.1f\n", w.c_str(),
                name.c_str(), ratio(execTicks(r), base),
                100.0 * static_cast<double>(r.ctxSwitchTicks) / busy,
                100.0 * static_cast<double>(r.computeTicks) / busy,
                100.0 * static_cast<double>(r.memStallTicks) / busy);
        }
    }
}

/** Fig 10: thread scheduling policies under coordinated switching. */
SweepSpec
fig10()
{
    SweepSpec s;
    s.name = "fig10";
    s.title = "thread scheduling policies (RR/Random/CFS)";
    s.axes.push_back(workloadAxis({"bc", "radix", "srad", "tpcc"}));
    SweepAxis axis{"policy", {}};
    const std::pair<const char *, SchedPolicy> policies[] = {
        {"RR", SchedPolicy::RoundRobin},
        {"Random", SchedPolicy::Random},
        {"CFS", SchedPolicy::Cfs}};
    for (const auto &[label, policy] : policies) {
        axis.values.push_back({label, [policy = policy](SweepPoint &p) {
                                   p.cfg.policy.schedPolicy = policy;
                               }});
    }
    s.axes.push_back(std::move(axis));
    s.table = fig10Table;
    return s;
}

/**
 * Fig 20 table: flash write traffic vs write log size. A larger log
 * widens the coalescing window, so page programs per compaction drop;
 * the effect saturates once the log covers the workload's write
 * working set.
 */
void
fig20Table(const SweepSpec &spec, const SweepExecution &exec,
           std::FILE *out)
{
    printNormalized(out, spec, exec,
                    "Figure 20: flash write traffic vs write log size "
                    "(pages programmed, normalized to the 16 KB log)",
                    "16", flashPrograms);
    std::fprintf(out, "\nCompactions and log appends per run:\n");
    for (const auto &w : axisLabels(spec, 0)) {
        std::fprintf(out, "  %-12s", w.c_str());
        for (const auto &kb : axisLabels(spec, 1)) {
            const SimResult &r = exec.at(w, kb);
            std::fprintf(out, " %5lux/%-8lu",
                         static_cast<unsigned long>(r.compactions),
                         static_cast<unsigned long>(r.logAppends));
        }
        std::fprintf(out, "\n");
    }
}

/**
 * Figs 19/20: write log size with total SSD DRAM fixed. Fig 19 paper
 * takeaway: a log of ~1/8 of SSD DRAM already provides a sufficient
 * coalescing window; write-heavy workloads with temporal locality
 * (srad, tpcc) are most sensitive.
 */
SweepSpec
logSizeSweep(const char *name, const char *title, SweepTable table)
{
    SweepSpec s;
    s.name = name;
    s.title = title;
    s.axes.push_back(paperWorkloadAxis());
    SweepAxis axis{"log_kb", {}};
    for (const std::uint64_t kb : {16ULL, 64ULL, 256ULL, 1024ULL,
                                   2048ULL, 4096ULL}) {
        axis.values.push_back(
            {std::to_string(kb), [kb](SweepPoint &p) {
                 // Re-split the SSD DRAM: kb KB of log, rest cache.
                 const std::uint64_t total =
                     p.cfg.ssdCache.writeLogBytes
                     + p.cfg.ssdCache.dataCacheBytes;
                 p.cfg.ssdCache.writeLogBytes = kb * 1024;
                 p.cfg.ssdCache.dataCacheBytes = total - kb * 1024;
             }});
    }
    s.axes.push_back(std::move(axis));
    s.table = std::move(table);
    return s;
}

/**
 * Fig 15 table: throughput and SSD bandwidth utilization of
 * SkyByte-Full as the thread count grows from 8 (= SkyByte-WP
 * baseline) to 48 on 8 cores. Paper: throughput scales with bandwidth
 * utilization until context-switch overhead dominates.
 */
void
fig15Table(const SweepSpec &spec, const SweepExecution &exec,
           std::FILE *out)
{
    const std::vector<std::string> threads = axisLabels(spec, 1);
    printHeader(out, "Figure 15: normalized throughput / SSD bandwidth "
                     "vs thread count (8 threads = SkyByte-WP = 1.0)");
    std::fprintf(out, "%-12s %-6s", "workload", "metric");
    for (const auto &t : threads)
        std::fprintf(out, "%9s", t.c_str());
    std::fprintf(out, "\n");
    for (const auto &w : axisLabels(spec, 0)) {
        const SimResult &base = exec.at(w, "8");
        std::fprintf(out, "%-12s %-6s", w.c_str(), "thrpt");
        for (const auto &t : threads) {
            std::fprintf(out, "%9.2f",
                         ratio(exec.at(w, t).throughput(),
                               base.throughput()));
        }
        std::fprintf(out, "\n%-12s %-6s", "", "bw");
        for (const auto &t : threads) {
            std::fprintf(out, "%9.2f",
                         ratio(exec.at(w, t).cxlBandwidthGbps(),
                               base.cxlBandwidthGbps()));
        }
        std::fprintf(out, "\n");
    }
}

/** Fig 15: thread scaling (8 = SkyByte-WP baseline, rest Full). */
SweepSpec
fig15()
{
    SweepSpec s;
    s.name = "fig15";
    s.title = "throughput/bandwidth vs thread count (8-48)";
    s.axes.push_back(paperWorkloadAxis());
    SweepAxis axis{"threads", {}};
    for (const int t : {8, 16, 24, 32, 40, 48}) {
        // 8 threads = SkyByte-WP (no switching benefit at 1/core).
        const std::string variant =
            t == 8 ? "SkyByte-WP" : "SkyByte-Full";
        axis.values.push_back(
            {std::to_string(t), [t, variant](SweepPoint &p) {
                 p.cfg = makeBenchConfig(variant);
                 p.cfg.seed = p.opt.seed;
                 p.opt.threadsOverride = t;
             }});
    }
    s.axes.push_back(std::move(axis));
    s.table = fig15Table;
    return s;
}

/**
 * Fig 21 table: SkyByte variants with varying SSD DRAM cache size
 * (paper 0.125-2 GB; 1/64 scale here). Paper: SkyByte-Full wins at
 * every size — a small DRAM with the cacheline write log matches a
 * much larger page-granular cache.
 */
void
fig21Table(const SweepSpec &spec, const SweepExecution &exec,
           std::FILE *out)
{
    // Split the combined "<variant>@<n>MB" axis back into variant rows
    // and size columns, each in first-appearance order.
    std::vector<std::string> variants;
    std::vector<std::string> sizes_mb;
    for (const std::string &label : axisLabels(spec, 1)) {
        const std::size_t at = label.find('@');
        const std::string variant = label.substr(0, at);
        const std::string mb =
            label.substr(at + 1, label.size() - at - 3); // drop "MB"
        if (std::find(variants.begin(), variants.end(), variant)
            == variants.end())
            variants.push_back(variant);
        if (std::find(sizes_mb.begin(), sizes_mb.end(), mb)
            == sizes_mb.end())
            sizes_mb.push_back(mb);
    }
    printHeader(out, "Figure 21: execution time vs SSD DRAM size "
                     "(normalized to SkyByte-Full @ 8MB default)");
    for (const auto &w : axisLabels(spec, 0)) {
        const double base = execTicks(exec.at(w, "SkyByte-Full@8MB"));
        std::fprintf(out, "\n%s (SSD DRAM MB: rows = variant)\n",
                     w.c_str());
        std::fprintf(out, "  %-14s", "variant");
        for (const auto &mb : sizes_mb)
            std::fprintf(out, "%10s", mb.c_str());
        std::fprintf(out, "\n");
        for (const auto &v : variants) {
            std::fprintf(out, "  %-14s", v.c_str());
            for (const auto &mb : sizes_mb) {
                std::fprintf(
                    out, "%10.2f",
                    ratio(execTicks(exec.at(w, v + "@" + mb + "MB")),
                          base));
            }
            std::fprintf(out, "\n");
        }
    }
}

/** Fig 21: SSD DRAM size x variant (4:1 host ratio, 1:7 log split). */
SweepSpec
fig21()
{
    SweepSpec s;
    s.name = "fig21";
    s.title = "SSD DRAM size sweep across variants";
    s.defaultInstrPerThread = 60'000;
    s.axes.push_back(paperWorkloadAxis());
    SweepAxis axis{"config", {}};
    for (const std::uint64_t mb : {2ULL, 4ULL, 8ULL, 16ULL, 32ULL}) {
        for (const char *v :
             {"Base-CSSD", "SkyByte-P", "SkyByte-W", "SkyByte-WP",
              "SkyByte-Full"}) {
            const std::string variant = v;
            axis.values.push_back(
                {variant + "@" + std::to_string(mb) + "MB",
                 [variant, mb](SweepPoint &p) {
                     p.cfg = makeBenchConfig(variant);
                     p.cfg.seed = p.opt.seed;
                     const std::uint64_t total = mb * 1024 * 1024;
                     p.cfg.ssdCache.writeLogBytes = total / 8;
                     p.cfg.ssdCache.dataCacheBytes = total - total / 8;
                     p.cfg.hostMem.promotedBytesMax = total * 4;
                 }});
        }
    }
    s.axes.push_back(std::move(axis));
    s.table = fig21Table;
    return s;
}

/**
 * Fig 22 (+ Table IV) table: SkyByte performance across NAND flash
 * families — ULL (Z-NAND), ULL2 (XL-Flash), SLC, MLC — with
 * SkyByte-Full at 16/24/32 threads. Paper: write log + context
 * switching matter more as flash gets slower, letting cheap commodity
 * flash approach Z-NAND performance for parallelizable applications.
 */
void
fig22Table(const SweepSpec &spec, const SweepExecution &exec,
           std::FILE *out)
{
    const SweepAxis &nand = spec.axes.at(2);
    printHeader(out, "Table IV: NAND flash parameters");
    std::fprintf(out, "%-6s %10s %12s %10s\n", "type", "read(us)",
                 "program(us)", "erase(us)");
    for (const AxisValue &value : nand.values) {
        SweepPoint p; // the nand axis only sets the flash timing
        value.apply(p);
        const NandTiming &t = p.cfg.flash.timing;
        std::fprintf(out, "%-6s %10.0f %12.0f %10.0f\n",
                     value.label.c_str(), ticksToUs(t.readLatency),
                     ticksToUs(t.programLatency),
                     ticksToUs(t.eraseLatency));
    }
    printHeader(out, "Figure 22: execution time by NAND type "
                     "(normalized to ULL / Full-24 per workload)");
    const std::vector<std::string> nands = nand.labels();
    for (const auto &w : axisLabels(spec, 0)) {
        const double base = execTicks(exec.at(w, "Full-24/ULL"));
        std::fprintf(out, "\n%s\n  %-12s", w.c_str(), "config");
        for (const auto &n : nands)
            std::fprintf(out, "%10s", n.c_str());
        std::fprintf(out, "\n");
        for (const auto &c : axisLabels(spec, 1)) {
            std::fprintf(out, "  %-12s", c.c_str());
            for (const auto &n : nands) {
                std::fprintf(
                    out, "%10.2f",
                    ratio(execTicks(exec.at(w, c + "/" + n)), base));
            }
            std::fprintf(out, "\n");
        }
    }
}

/** Fig 22 / Table IV: NAND families x SkyByte configurations. */
SweepSpec
fig22()
{
    SweepSpec s;
    s.name = "fig22";
    s.title = "NAND flash families x SkyByte configs";
    s.defaultInstrPerThread = 60'000;
    s.axes.push_back(paperWorkloadAxis());
    SweepAxis config{"config", {}};
    struct Config
    {
        const char *label;
        const char *variant;
        int threads; // 0 = paper default
    };
    const Config configs[] = {
        {"SkyByte-P", "SkyByte-P", 0},   {"SkyByte-W", "SkyByte-W", 0},
        {"SkyByte-WP", "SkyByte-WP", 0}, {"Full-16", "SkyByte-Full", 16},
        {"Full-24", "SkyByte-Full", 24}, {"Full-32", "SkyByte-Full", 32}};
    for (const Config &c : configs) {
        const std::string v = c.variant;
        const int t = c.threads;
        config.values.push_back({c.label, [v, t](SweepPoint &p) {
                                     p.cfg = makeBenchConfig(v);
                                     p.cfg.seed = p.opt.seed;
                                     p.opt.threadsOverride = t;
                                 }});
    }
    s.axes.push_back(std::move(config));
    SweepAxis nand{"nand", {}};
    for (const NandType type : {NandType::ULL, NandType::ULL2,
                                NandType::SLC, NandType::MLC}) {
        nand.values.push_back(
            {nandTypeName(type), [type](SweepPoint &p) {
                 p.cfg.flash.timing = nandTiming(type);
             }});
    }
    s.axes.push_back(std::move(nand));
    s.table = fig22Table;
    return s;
}

/**
 * Fig 23 table: SkyByte-C (no migration), AstriFlash-CXL, TPP-based
 * SkyByte-CT / SkyByte-WCT, and SkyByte-CP / SkyByte-Full. Paper:
 * SkyByte-CP beats AstriFlash-CXL by ~1.09x (hot-page-only,
 * fully-associative host use), SkyByte-WCT beats SkyByte-CT by 1.10x
 * (the write log composes with TPP), and SkyByte-Full wins overall.
 */
void
fig23Table(const SweepSpec &spec, const SweepExecution &exec,
           std::FILE *out)
{
    printNormalized(out, spec, exec,
                    "Figure 23: page migration mechanisms — execution "
                    "time normalized to SkyByte-C (lower is better)",
                    "SkyByte-C");
    std::fprintf(out, "\nPromotions (pages moved to host DRAM):\n");
    for (const auto &w : axisLabels(spec, 0)) {
        std::fprintf(out, "  %-12s", w.c_str());
        for (const auto &v : axisLabels(spec, 1)) {
            std::fprintf(out, " %10lu", static_cast<unsigned long>(
                                            exec.at(w, v).promotions));
        }
        std::fprintf(out, "\n");
    }
}

/** Fig 23: page-migration mechanisms. */
SweepSpec
fig23()
{
    SweepSpec s;
    s.name = "fig23";
    s.title = "page migration mechanisms (TPP/AstriFlash/"
        "SkyByte)";
    s.axes.push_back(paperWorkloadAxis());
    SweepAxis axis{"mechanism", {}};
    for (const char *v : {"SkyByte-C", "AstriFlash-CXL", "SkyByte-CT",
                          "SkyByte-CP", "SkyByte-WCT", "SkyByte-Full"}) {
        const std::string variant = v;
        axis.values.push_back({variant, [variant](SweepPoint &p) {
                                   p.cfg = makeBenchConfig(variant);
                                   p.cfg.seed = p.opt.seed;
                                   if (variant == "AstriFlash-CXL") {
                                       // User-level switches are much
                                       // cheaper than an OS switch [23].
                                       p.cfg.policy.ctxSwitchOverhead =
                                           p.cfg.policy
                                               .astriSwitchOverhead;
                                   }
                               }});
    }
    s.axes.push_back(std::move(axis));
    s.table = fig23Table;
    return s;
}

/** One CDF-at-thresholds row of a Figs 5/6 locality table. */
void
printLocalityRow(std::FILE *out, const std::string &workload,
                 const std::string &ratio_label, const RatioHistogram &h)
{
    std::fprintf(out, "%-8s %-6s %8.3f %8.3f %8.3f %8.3f %8.1f",
                 workload.c_str(), ratio_label.c_str(), h.cdfAt(0.125),
                 h.cdfAt(0.25), h.cdfAt(0.5), h.cdfAt(0.75),
                 100.0 * h.mean());
}

/**
 * Fig 5 table: CDF of the fraction of cachelines accessed per page
 * read from flash into the SSD DRAM cache, as the footprint:cache
 * ratio (1:n) varies. Paper's takeaway: most workloads access <40% of
 * the lines in >75% of pages, so page-granular caching wastes SSD
 * DRAM.
 */
void
fig05Table(const SweepSpec &spec, const SweepExecution &exec,
           std::FILE *out)
{
    printHeader(out, "Figure 5: fraction of cachelines ACCESSED per "
                     "cached page (CDF at thresholds; mean)");
    std::fprintf(out, "%-8s %-6s %8s %8s %8s %8s %8s\n", "workload",
                 "ratio", "<=12.5%", "<=25%", "<=50%", "<=75%",
                 "mean%");
    for (const auto &w : axisLabels(spec, 0)) {
        for (const auto &col : axisLabels(spec, 1)) {
            printLocalityRow(out, w, col, exec.at(w, col).readLocality);
            std::fprintf(out, "\n");
        }
    }
}

/**
 * Fig 6 table: CDF of the fraction of cachelines dirty per page
 * flushed to flash, as the footprint:cache ratio (1:n) varies. Paper's
 * takeaway: page-granular writebacks program mostly-clean pages,
 * motivating the cacheline-granular write log.
 */
void
fig06Table(const SweepSpec &spec, const SweepExecution &exec,
           std::FILE *out)
{
    printHeader(out, "Figure 6: fraction of cachelines DIRTY per page "
                     "flushed to flash (CDF at thresholds; mean)");
    std::fprintf(out, "%-8s %-6s %8s %8s %8s %8s %8s %10s\n", "workload",
                 "ratio", "<=12.5%", "<=25%", "<=50%", "<=75%", "mean%",
                 "flushes");
    for (const auto &w : axisLabels(spec, 0)) {
        for (const auto &col : axisLabels(spec, 1)) {
            const RatioHistogram &h = exec.at(w, col).writeLocality;
            printLocalityRow(out, w, col, h);
            std::fprintf(out, " %10lu\n",
                         static_cast<unsigned long>(h.count()));
        }
    }
}

/** Figs 5/6: footprint:cache ratio sweep on Base-CSSD. */
SweepSpec
localitySweep(const char *name, const char *title, bool disable_log,
              SweepTable table)
{
    SweepSpec s;
    s.name = name;
    s.title = title;
    s.baseVariant = "Base-CSSD";
    s.defaultInstrPerThread = 80'000;
    s.axes.push_back(workloadAxis({"bc", "dlrm", "radix", "ycsb"}));
    SweepAxis axis{"ratio", {}};
    for (const std::uint64_t n : {4ULL, 8ULL, 16ULL, 32ULL, 64ULL}) {
        axis.values.push_back(
            {"1:" + std::to_string(n), [n, disable_log](SweepPoint &p) {
                 // Fix the footprint, scale the cache to footprint/n.
                 p.opt.footprintBytes = 128ULL * 1024 * 1024;
                 p.cfg.ssdCache.dataCacheBytes =
                     p.opt.footprintBytes / n;
                 if (disable_log)
                     p.cfg.ssdCache.writeLogBytes = 0;
             }});
    }
    s.axes.push_back(std::move(axis));
    s.table = std::move(table);
    return s;
}

/**
 * Ablation table: fixed-latency DRAM timing (the paper folds DRAM
 * service into calibrated constants) vs the bank/row-buffer model
 * built from Table II's speed grades (DDR5-4800 36-38-38 for the host,
 * LPDDR4-3200 16-18-18 for the SSD DRAM). If the end-to-end
 * conclusions moved with the DRAM model, the simplification would be
 * unsound; this table shows they do not — flash latency dominates
 * every CXL-SSD variant.
 */
void
ablDramModelTable(const SweepSpec &spec, const SweepExecution &exec,
                  std::FILE *out)
{
    const std::vector<std::string> workloads = axisLabels(spec, 0);
    const auto ticks = [&exec](const std::string &w, const char *col) {
        return execTicks(exec.at(w, col));
    };
    printHeader(out, "Ablation: DRAM timing model (normalized exec "
                     "time; <variant>/fixed = 1.0 per variant)");
    std::fprintf(out, "%-16s%18s%18s\n", "workload", "Base banked/fixed",
                 "Full banked/fixed");
    for (const auto &w : workloads) {
        std::fprintf(out, "%-16s%18.3f%18.3f\n", w.c_str(),
                     ticks(w, "Base-CSSD/banked")
                         / ticks(w, "Base-CSSD/fixed"),
                     ticks(w, "SkyByte-Full/banked")
                         / ticks(w, "SkyByte-Full/fixed"));
    }
    printHeader(out, "Speedup Full over Base under each DRAM model "
                     "(the headline claim must survive the model swap)");
    std::fprintf(out, "%-16s%14s%14s\n", "workload", "fixed", "banked");
    for (const auto &w : workloads) {
        std::fprintf(out, "%-16s%14.2f%14.2f\n", w.c_str(),
                     ticks(w, "Base-CSSD/fixed")
                         / ticks(w, "SkyByte-Full/fixed"),
                     ticks(w, "Base-CSSD/banked")
                         / ticks(w, "SkyByte-Full/banked"));
    }
}

/** Ablation: fixed-latency vs banked DRAM timing. */
SweepSpec
ablDramModel()
{
    SweepSpec s;
    s.name = "abl_dram_model";
    s.title = "DRAM timing model ablation (fixed vs banked)";
    s.axes.push_back(workloadAxis({"bc", "srad", "tpcc", "ycsb"}));
    s.axes.push_back(variantAxis({"Base-CSSD", "SkyByte-Full"}));
    SweepAxis axis{"dram_model", {}};
    axis.values.push_back({"fixed", nullptr});
    axis.values.push_back({"banked", [](SweepPoint &p) {
                               p.cfg.hostDram.bank = ddr5BankTiming();
                               p.cfg.ssdDram.bank = lpddr4BankTiming();
                           }});
    s.axes.push_back(std::move(axis));
    s.table = ablDramModelTable;
    return s;
}

/**
 * Ablation table: garbage-collection aggressiveness and wear-aware
 * block allocation. Table II fixes the GC threshold at 80% utilization
 * (20% free blocks); the sweep varies the free-block threshold and
 * toggles dynamic wear leveling, reporting execution time, GC runs,
 * write amplification, and the block P/E spread. An earlier GC start
 * smooths the tail (fewer requests arrive during a collection) but
 * burns more background bandwidth; wear-aware allocation should bound
 * the P/E spread at no performance cost.
 */
void
ablGcWearTable(const SweepSpec &spec, const SweepExecution &exec,
               std::FILE *out)
{
    printNormalized(out, spec, exec,
                    "Ablation: GC threshold x wear-aware allocation "
                    "(normalized exec time, gc=20% = 1.0 — Table II "
                    "default)",
                    "gc=20%");
    printMatrix(out, spec, exec, "GC runs", [](const SimResult &r) {
        return static_cast<double>(r.gcRuns);
    });
    printMatrix(
        out, spec, exec, "Write amplification factor",
        [](const SimResult &r) { return r.writeAmplification; },
        "%12.3f");
    printMatrix(out, spec, exec, "Block P/E spread (max - min erase count)",
                [](const SimResult &r) {
                    return static_cast<double>(r.wearSpread);
                });
}

/** Ablation: GC threshold x wear-aware allocation on Base-CSSD. */
SweepSpec
ablGcWear()
{
    SweepSpec s;
    s.name = "abl_gc_wear";
    s.title = "GC threshold x wear-aware allocation ablation";
    // Base-CSSD: page-granular writebacks keep the flash programming
    // (SkyByte's write log would coalesce most GC pressure away).
    s.baseVariant = "Base-CSSD";
    s.axes.push_back(workloadAxis({"srad", "bfs-dense"}));
    SweepAxis axis{"gc", {}};
    for (const double threshold : {0.10, 0.20, 0.40}) {
        for (const bool wear : {false, true}) {
            char label[48];
            std::snprintf(label, sizeof(label), "gc=%.0f%%%s",
                          threshold * 100.0, wear ? "/wear" : "");
            axis.values.push_back(
                {label, [threshold, wear](SweepPoint &p) {
                     p.cfg.flash.gcFreeBlockThreshold = threshold;
                     p.cfg.flash.gcRestoreThreshold = threshold + 0.05;
                     p.cfg.flash.wearAwareAllocation = wear;
                 }});
        }
    }
    s.axes.push_back(std::move(axis));
    s.table = ablGcWearTable;
    return s;
}

/**
 * Ablation table: huge-page (2 MB) migration through the two-level PLB
 * (§IV) vs plain 4 KB migration (§III-C) vs no migration. Huge pages
 * amortize the MSI-X/PTE/TLB overheads over 512 chunks and pull whole
 * regions of a hot working set at once, but they occupy the host
 * budget in coarse units and copy cold chunks too, so sparse workloads
 * regress — the trade the §IV design discussion implies. A scaled-down
 * 64 KB region column separates "coarser than 4 KB" effects from "2 MB
 * is too big at bench scale".
 */
void
ablHugepageTable(const SweepSpec &spec, const SweepExecution &exec,
                 std::FILE *out)
{
    printNormalized(out, spec, exec,
                    "Ablation: migration granularity (§IV huge pages; "
                    "normalized exec time, 4KB-pages = 1.0)",
                    "4KB-pages");
    printMatrix(out, spec, exec, "Promotions completed (regions)",
                promotions);
}

/** Ablation: migration granularity (4 KB / 64 KB / 2 MB / none). */
SweepSpec
ablHugepage()
{
    SweepSpec s;
    s.name = "abl_hugepage";
    s.title = "migration granularity ablation "
        "(huge pages via two-level PLB)";
    s.axes.push_back(workloadAxis({"bc", "tpcc", "ycsb", "radix"}));
    SweepAxis axis{"granularity", {}};
    struct Mode
    {
        const char *label;
        std::uint64_t hugeBytes;
        bool promote;
    };
    const Mode modes[] = {{"no-migration", 0, false},
                          {"4KB-pages", 0, true},
                          {"64KB-regions", 64ULL * 1024, true},
                          {"2MB-huge", 2ULL * 1024 * 1024, true}};
    for (const Mode &mode : modes) {
        const std::uint64_t bytes = mode.hugeBytes;
        const bool promote = mode.promote;
        axis.values.push_back(
            {mode.label, [bytes, promote](SweepPoint &p) {
                 p.cfg = makeBenchConfig(promote ? "SkyByte-Full"
                                                 : "SkyByte-W");
                 p.cfg.seed = p.opt.seed;
                 p.cfg.hostMem.hugePageBytes = bytes;
             }});
    }
    s.axes.push_back(std::move(axis));
    s.table = ablHugepageTable;
    return s;
}

/**
 * Ablation: MSHR handling on context-switch squash. Freeing L1 MSHR
 * entries when a thread's loads squash on a coordinated context switch
 * (§III-A) vs holding them until the response returns. The paper
 * enables freeing by default because held entries from a switched-out
 * thread starve the incoming thread's MLP for microseconds.
 */
SweepSpec
ablMshrFree()
{
    SweepSpec s;
    s.name = "abl_mshr_free";
    s.title = "MSHR free-on-squash vs hold-until-fill ablation";
    s.axes.push_back(workloadAxis({"bc", "bfs-dense", "srad", "ycsb"}));
    SweepAxis axis{"mshr", {}};
    for (const bool free_mshr : {true, false}) {
        axis.values.push_back(
            {free_mshr ? "free-on-squash" : "hold-until-fill",
             [free_mshr](SweepPoint &p) {
                 p.cfg.cpu.freeMshrOnSquash = free_mshr;
             }});
    }
    s.axes.push_back(std::move(axis));
    s.table = normalizedExecTable(
        "Ablation: MSHR handling on squash (SkyByte-Full; normalized "
        "exec time, free-on-squash = 1.0)",
        "free-on-squash");
    return s;
}

/**
 * Ablation table: the hot-page promotion threshold (§III-C — "the SSD
 * controller tracks the access count of flash pages and selects pages
 * whose access counts exceed a threshold"). Too low promotes one-hit
 * wonders and churns the budget; too high leaves hot pages serving
 * from the SSD forever. The sweep shows a broad plateau around the
 * default, which is why the paper can leave the constant untuned per
 * workload.
 */
void
ablPromotionTable(const SweepSpec &spec, const SweepExecution &exec,
                  std::FILE *out)
{
    printNormalized(out, spec, exec,
                    "Ablation: hot-page promotion threshold sweep "
                    "(normalized exec time, hot=32 default = 1.0)",
                    "hot=32");
    printMatrix(out, spec, exec, "Promotions at each threshold",
                promotions);
}

/** Ablation: hot-page promotion threshold. */
SweepSpec
ablPromotion()
{
    SweepSpec s;
    s.name = "abl_promotion";
    s.title = "hot-page promotion threshold sensitivity";
    s.axes.push_back(workloadAxis({"bc", "tpcc", "ycsb", "bfs-dense"}));
    SweepAxis axis{"hot", {}};
    for (const std::uint32_t threshold : {2u, 8u, 32u, 128u, 512u}) {
        axis.values.push_back(
            {"hot=" + std::to_string(threshold),
             [threshold](SweepPoint &p) {
                 p.cfg.policy.hotPageThreshold = threshold;
             }});
    }
    s.axes.push_back(std::move(axis));
    s.table = ablPromotionTable;
    return s;
}

/**
 * Ablation table: demotion victim selection when the host promotion
 * budget is full — the exact-LRU scan vs the Linux-style
 * active/inactive lists §III-C actually cites. The two should agree on
 * end-to-end performance (both find cold pages); the lists do it
 * without scanning every promoted page, which is what makes them the
 * deployable choice.
 */
void
ablReclaimTable(const SweepSpec &spec, const SweepExecution &exec,
                std::FILE *out)
{
    printNormalized(out, spec, exec,
                    "Ablation: reclaim policy under a tight host budget"
                    " (normalized exec time, lru-scan = 1.0)",
                    "lru-scan");
    printMatrix(out, spec, exec, "Demotions under each policy",
                [](const SimResult &r) {
                    return static_cast<double>(r.demotions);
                });
}

/** Ablation: demotion victim selection under a tight host budget. */
SweepSpec
ablReclaim()
{
    SweepSpec s;
    s.name = "abl_reclaim";
    s.title = "reclaim policy ablation (lru-scan vs active-inactive)";
    s.axes.push_back(workloadAxis({"bc", "tpcc", "ycsb", "dlrm"}));
    SweepAxis axis{"reclaim", {}};
    for (const ReclaimPolicy policy :
         {ReclaimPolicy::LruScan, ReclaimPolicy::ActiveInactive}) {
        axis.values.push_back(
            {policy == ReclaimPolicy::LruScan ? "lru-scan"
                                              : "active-inactive",
             [policy](SweepPoint &p) {
                 // 1/32 of the default budget plus an eager promotion
                 // threshold: the hot set must overflow the host so
                 // the reclaim path actually runs.
                 p.cfg.hostMem.promotedBytesMax /= 32;
                 p.cfg.policy.hotPageThreshold = 8;
                 p.cfg.hostMem.reclaim = policy;
             }});
    }
    s.axes.push_back(std::move(axis));
    s.table = ablReclaimTable;
    return s;
}

/** workload x variant grid (the most common figure shape). */
SweepSpec
variantGrid(const char *name, const char *title,
            std::vector<std::string> workloads,
            std::vector<std::string> variants,
            std::uint64_t instr, SweepTable table = nullptr)
{
    SweepSpec s;
    s.name = name;
    s.title = title;
    s.defaultInstrPerThread = instr;
    s.axes.push_back(workloadAxis(std::move(workloads)));
    s.axes.push_back(variantAxis(std::move(variants)));
    s.table = std::move(table);
    return s;
}

/**
 * Fig 3 table: off-chip memory access latency distribution (CDF) for
 * DRAM vs CXL-SSD. The paper's shape: >90% of CXL-SSD requests within
 * ~200 ns (SSD DRAM cache hits) with a tail at hundreds of
 * microseconds from flash reads and GC.
 */
void
fig03Table(const SweepSpec &spec, const SweepExecution &exec,
           std::FILE *out)
{
    printHeader(out, "Figure 3: off-chip access latency CDFs "
                     "(latency_ns cumulative_fraction)");
    for (const auto &w : axisLabels(spec, 0)) {
        for (const auto &v : axisLabels(spec, 1)) {
            const LatencyHistogram &h = exec.at(w, v).offchipLatency;
            const auto ns = [&h](double p) {
                return ticksToNs(h.percentileTicks(p));
            };
            std::fprintf(out,
                         "\n[%s / %s] p50=%.0fns p90=%.0fns "
                         "p99=%.0fns p99.9=%.0fns\n",
                         w.c_str(), v.c_str(), ns(0.5), ns(0.9),
                         ns(0.99), ns(0.999));
            int printed = 0;
            for (const auto &[latency_ns, frac] : h.cdfPoints()) {
                std::fprintf(out, "  %10.0f %7.4f", latency_ns, frac);
                if (++printed % 4 == 0)
                    std::fprintf(out, "\n");
            }
            std::fprintf(out, "\n");
        }
    }
}

/**
 * Fig 4 table: execution-time boundedness breakdown (memory vs
 * compute) for DRAM vs CXL-SSD. Paper: memory-bounded share grows from
 * 62.9-98.7% (DRAM) to 77-99.8% (CXL-SSD).
 */
void
fig04Table(const SweepSpec &spec, const SweepExecution &exec,
           std::FILE *out)
{
    printHeader(out, "Figure 4: cycles bounded by memory vs compute (%)");
    std::fprintf(out, "%-12s %22s %22s\n", "workload", "DRAM mem/comp",
                 "CXL-SSD mem/comp");
    const auto mem_pct = [](const SimResult &r) {
        const double busy = static_cast<double>(
            r.computeTicks + r.memStallTicks + r.ctxSwitchTicks);
        return busy > 0
                   ? 100.0 * static_cast<double>(r.memStallTicks) / busy
                   : 0.0;
    };
    for (const auto &w : axisLabels(spec, 0)) {
        const double dram_mem = mem_pct(exec.at(w, "DRAM-Only"));
        const double cssd_mem = mem_pct(exec.at(w, "Base-CSSD"));
        std::fprintf(out, "%-12s %10.1f /%9.1f %11.1f /%9.1f\n",
                     w.c_str(), dram_mem, 100.0 - dram_mem, cssd_mem,
                     100.0 - cssd_mem);
    }
}

/**
 * Fig 14 table: the headline ablation — normalized execution time of
 * all SkyByte variants over Base-CSSD. Paper: SkyByte-Full is 6.11x
 * better on average (up to 16.35x) and reaches 75% of DRAM-Only;
 * expected ordering Base < {P,C,W} < {CP,WP} < Full <= DRAM-Only.
 */
void
fig14Table(const SweepSpec &spec, const SweepExecution &exec,
           std::FILE *out)
{
    printNormalized(out, spec, exec,
                    "Figure 14: normalized execution time over "
                    "Base-CSSD (lower is better)",
                    "Base-CSSD");
    std::fprintf(out, "\nSpeedup of SkyByte-Full over Base-CSSD "
                      "(higher is better):\n");
    std::vector<double> speedups;
    std::vector<double> vs_ideal;
    for (const auto &w : axisLabels(spec, 0)) {
        const double full = execTicks(exec.at(w, "SkyByte-Full"));
        const double s = execTicks(exec.at(w, "Base-CSSD")) / full;
        speedups.push_back(s);
        vs_ideal.push_back(execTicks(exec.at(w, "DRAM-Only")) / full);
        std::fprintf(out, "  %-12s %6.2fx\n", w.c_str(), s);
    }
    std::fprintf(out, "  %-12s %6.2fx   (paper: 6.11x at full scale)\n",
                 "geo.mean", geoMean(speedups));
    std::fprintf(out, "\nSkyByte-Full reaches %.0f%% of DRAM-Only "
                      "performance (paper: 75%%)\n",
                 100.0 * geoMean(vs_ideal));
}

/**
 * Fig 16 table: breakdown of all memory requests served by the memory
 * system under SkyByte-Full: H-R/W (host DRAM read/write), S-R-H
 * (CXL-SSD DRAM read hit), S-R-M (CXL-SSD DRAM read miss), S-W
 * (CXL-SSD write; all writes append to the log, so hits/misses are not
 * distinguished — paper footnote 1).
 */
void
fig16Table(const SweepSpec &spec, const SweepExecution &exec,
           std::FILE *out)
{
    printHeader(out, "Figure 16: memory request breakdown (%) under "
                     "SkyByte-Full");
    std::fprintf(out, "%-12s %9s %9s %9s %9s\n", "workload", "H-R/W",
                 "S-R-H", "S-R-M", "S-W");
    for (const auto &w : axisLabels(spec, 0)) {
        const SimResult &r = exec.at(w, "SkyByte-Full");
        const double total = static_cast<double>(
            r.hostReads + r.hostWrites + r.ssdReadHits + r.ssdReadMisses
            + r.ssdWrites);
        if (total == 0)
            continue;
        const auto pct = [total](std::uint64_t n) {
            return 100.0 * static_cast<double>(n) / total;
        };
        std::fprintf(out, "%-12s %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
                     w.c_str(), pct(r.hostReads + r.hostWrites),
                     pct(r.ssdReadHits), pct(r.ssdReadMisses),
                     pct(r.ssdWrites));
    }
}

/**
 * Fig 17 table: average memory access time (AMAT) and its breakdown
 * into host DRAM / CXL protocol / SSD indexing / SSD DRAM / flash
 * components across the design variants. Paper: SkyByte reduces AMAT
 * 14.19x vs Base-CSSD on average; SkyByte-Full lands within 1.39x of
 * DRAM-Only.
 */
void
fig17Table(const SweepSpec &spec, const SweepExecution &exec,
           std::FILE *out)
{
    printNormalized(out, spec, exec,
                    "Figure 17a: AMAT normalized to Base-CSSD",
                    "Base-CSSD", [](const SimResult &r) {
                        return r.amatTotalTicks > 0 ? r.amatTotalTicks
                                                    : 1.0;
                    });
    printHeader(out, "Figure 17b: AMAT component breakdown (ns per "
                     "off-chip read): host/protocol/indexing/ssdDram/"
                     "flash");
    const auto ns = [](double ticks) {
        return ticksToNs(static_cast<Tick>(ticks));
    };
    for (const auto &w : axisLabels(spec, 0)) {
        std::fprintf(out, "\n%s\n", w.c_str());
        for (const auto &v : axisLabels(spec, 1)) {
            const SimResult &r = exec.at(w, v);
            std::fprintf(out,
                         "  %-14s host=%8.1f proto=%7.1f idx=%6.1f "
                         "dram=%8.1f flash=%10.1f total=%10.1f\n",
                         v.c_str(), ns(r.amatHostTicks),
                         ns(r.amatProtocolTicks), ns(r.amatIndexingTicks),
                         ns(r.amatSsdDramTicks), ns(r.amatFlashTicks),
                         ns(r.amatTotalTicks));
        }
    }
}

/**
 * Fig 18 table: write traffic to the flash chips (pages programmed on
 * the data path, i.e., dirty-page writebacks / RMW / log compaction)
 * for each variant, normalized to Base-CSSD. Paper: SkyByte reduces
 * flash write traffic 23.08x on average, with the write log the
 * dominant contributor; context switching slightly increases traffic
 * again.
 */
void
fig18Table(const SweepSpec &spec, const SweepExecution &exec,
           std::FILE *out)
{
    printNormalized(out, spec, exec,
                    "Figure 18: flash write traffic (pages programmed, "
                    "normalized to Base-CSSD; log scale in paper)",
                    "Base-CSSD", flashPrograms);
    std::fprintf(out, "\nAbsolute pages programmed (data path / GC):\n");
    for (const auto &w : axisLabels(spec, 0)) {
        std::fprintf(out, "  %-12s", w.c_str());
        for (const auto &v : axisLabels(spec, 1)) {
            const SimResult &r = exec.at(w, v);
            std::fprintf(out, " %8lu/%-6lu",
                         static_cast<unsigned long>(r.flashHostPrograms),
                         static_cast<unsigned long>(r.flashGcPrograms));
        }
        std::fprintf(out, "\n");
    }
}

/**
 * Table I: workload characteristics — memory footprint, write ratio
 * and LLC MPKI — measured from the synthetic generators and compared
 * with the paper's published values. Footprints are 1/64 scale by
 * design; write ratios should match closely; MPKI should preserve the
 * paper's ordering (tpcc lowest ... bfs-dense highest).
 */
void
table1Table(const SweepSpec &spec, const SweepExecution &exec,
            std::FILE *out)
{
    printHeader(out, "Table I: workload characteristics "
                     "(measured vs paper)");
    std::fprintf(out, "%-10s %-9s %12s %12s %9s %9s %9s %9s\n", "name",
                 "suite", "footprint", "paper(GB)", "wr%", "paper%",
                 "MPKI", "paperMPKI");
    for (const auto &w : axisLabels(spec, 0)) {
        const WorkloadInfo &info = workloadInfo(w);
        const SimResult &r = exec.at(w, "Base-CSSD");

        // Measured write ratio of the generated trace.
        WorkloadParams params;
        params.numThreads = 1;
        params.instrPerThread = 200'000;
        auto wl = makeWorkload(w, params);
        std::uint64_t writes = 0, mem_ops = 0;
        TraceCursor cursor(*wl, 0);
        TraceRecord rec;
        while (cursor.next(rec)) {
            mem_ops++;
            writes += rec.isWrite ? 1 : 0;
        }
        const double footprint_mb =
            static_cast<double>(wl->footprintBytes()) / (1024 * 1024);

        std::fprintf(out,
                     "%-10s %-9s %9.0fMB %12.2f %8.1f%% %8.1f%% "
                     "%9.1f %9.1f\n",
                     w.c_str(), info.suite.c_str(), footprint_mb,
                     info.paperFootprintGb,
                     100.0 * static_cast<double>(writes)
                         / static_cast<double>(mem_ops),
                     100.0 * info.paperWriteRatio, r.llcMpki(),
                     info.paperLlcMpki);
    }
    std::fprintf(out, "\n(footprints are deliberately 1/64 of the "
                      "paper's; MPKI is measured at bench scale so "
                      "absolute values differ — the cross-workload "
                      "ordering is the reproduction target)\n");
}

/**
 * Table III: average flash read latency observed by SkyByte-WP demand
 * fetches. Paper values range from 3.3 us (ycsb, near-idle channels)
 * to 25.7 us (bfs-dense, queueing + compaction interference).
 */
void
table3Table(const SweepSpec &spec, const SweepExecution &exec,
            std::FILE *out)
{
    printHeader(out, "Table III: average flash read latency of "
                     "SkyByte-WP (us)");
    std::fprintf(out, "%-12s %12s %12s\n", "workload", "measured(us)",
                 "paper(us)");
    const std::map<std::string, double> paper = {
        {"bc", 3.5},    {"bfs-dense", 25.7}, {"dlrm", 3.4},
        {"radix", 4.9}, {"srad", 22.5},      {"tpcc", 19.6},
        {"ycsb", 3.3}};
    for (const auto &w : axisLabels(spec, 0)) {
        std::fprintf(out, "%-12s %12.1f %12.1f\n", w.c_str(),
                     exec.at(w, "SkyByte-WP").flashReadLatencyUs,
                     paper.at(w));
    }
}

} // namespace

void
registerBuiltinSweeps()
{
    const std::vector<std::string> paper = paperWorkloadNames();

    // Fig 2: host DRAM vs a naive CXL-SSD. The paper reports 1.5-31.4x
    // slowdowns; the reproduced series should show the same
    // per-workload ordering (graph workloads worst, tpcc mildest).
    registerSweepUnlocked(variantGrid(
        "fig02", "DRAM vs Base-CSSD end-to-end execution time", paper,
        {"DRAM-Only", "Base-CSSD"}, 120'000,
        normalizedExecTable("Figure 2: Normalized execution time, DRAM "
                            "vs Base-CSSD (DRAM = 1.0)",
                            "DRAM-Only")));
    registerSweepUnlocked(variantGrid(
        "fig03", "off-chip access latency CDFs (DRAM vs CXL-SSD)",
        {"bc", "bfs-dense", "srad", "tpcc"},
        {"DRAM-Only", "Base-CSSD"}, 100'000, fig03Table));
    registerSweepUnlocked(variantGrid(
        "fig04", "memory- vs compute-bounded cycle breakdown", paper,
        {"DRAM-Only", "Base-CSSD"}, 120'000, fig04Table));
    registerSweepUnlocked(localitySweep(
        "fig05", "cachelines accessed per cached page (read locality)",
        true, fig05Table));
    registerSweepUnlocked(localitySweep(
        "fig06", "cachelines dirty per flushed page (write locality)",
        false, fig06Table));
    registerSweepUnlocked(fig09());
    registerSweepUnlocked(fig10());
    registerSweepUnlocked(variantGrid(
        "fig14", "headline ablation: all variants vs Base-CSSD", paper,
        allVariantNames(), 150'000, fig14Table));
    registerSweepUnlocked(fig15());
    registerSweepUnlocked(variantGrid(
        "fig16", "memory request breakdown under SkyByte-Full", paper,
        {"SkyByte-Full"}, 120'000, fig16Table));
    registerSweepUnlocked(variantGrid(
        "fig17", "AMAT and its component breakdown", paper,
        {"Base-CSSD", "SkyByte-P", "SkyByte-W", "SkyByte-WP",
         "SkyByte-Full", "DRAM-Only"},
        100'000, fig17Table));
    registerSweepUnlocked(variantGrid(
        "fig18", "flash write traffic by variant", paper,
        {"Base-CSSD", "SkyByte-P", "SkyByte-C", "SkyByte-W",
         "SkyByte-CP", "SkyByte-WP", "SkyByte-Full"},
        150'000, fig18Table));
    registerSweepUnlocked(logSizeSweep(
        "fig19", "execution time vs write log size",
        normalizedExecTable("Figure 19: normalized execution time vs "
                            "write log size (KB; total SSD DRAM fixed; "
                            "1024 KB = default 1/8 split = 1.0)",
                            "1024")));
    registerSweepUnlocked(logSizeSweep(
        "fig20", "flash write traffic vs write log size", fig20Table));
    registerSweepUnlocked(fig21());
    registerSweepUnlocked(fig22());
    registerSweepUnlocked(fig23());
    registerSweepUnlocked(variantGrid(
        "table1", "workload characteristics on Base-CSSD", paper,
        {"Base-CSSD"}, 120'000, table1Table));
    registerSweepUnlocked(variantGrid(
        "table3", "flash read latency of SkyByte-WP demand fetches",
        paper, {"SkyByte-WP"}, 120'000, table3Table));
    registerSweepUnlocked(ablDramModel());
    registerSweepUnlocked(ablGcWear());
    registerSweepUnlocked(ablHugepage());
    registerSweepUnlocked(ablMshrFree());
    registerSweepUnlocked(ablPromotion());
    registerSweepUnlocked(ablReclaim());

    // Tiny 2x2 grid for CI shard/merge checks and quick demos.
    SweepSpec smoke = variantGrid(
        "smoke", "tiny 2x2 grid for CI shard/merge checks",
        {"ycsb", "srad"}, {"Base-CSSD", "SkyByte-Full"}, 4'000);
    registerSweepUnlocked(std::move(smoke));

    // The parameterized synthetic scenarios as a workload axis of spec
    // strings — beyond-the-paper coverage, and the grid CI's
    // workload-fingerprint job diffs against a checked-in reference
    // report to catch accidental simulation or generator drift.
    registerSweepUnlocked(variantGrid(
        "scenarios",
        "parameterized synthetic scenarios (workload spec strings)",
        {"zipf:theta=0.8,footprint=32M", "scan:stride=128",
         "ptrchase:footprint=16M,chain=32",
         "phased:phase_instr=8000,write_ratio=0.3"},
        {"Base-CSSD", "SkyByte-Full"}, 4'000));

    // Multi-tenant co-location: heterogeneous mixes sharing one device
    // (write-log pressure, PLB thrash and migration churn only show up
    // with co-located tenants). Per-tenant stat buckets land in each
    // point's SimResult; CI gates the report against
    // tests/data/colocation.reference.json and proves shard/merge
    // byte-identity on this sweep too.
    registerSweepUnlocked(variantGrid(
        "colocation",
        "multi-tenant co-location mixes (mix: spec combinator)",
        {"mix:hot=zipf:theta=0.9,footprint=16M;"
         "stream=scan:stride=128,footprint=16M,threads=2",
         "mix:a=zipf:footprint=8M;"
         "b=zipf:footprint=8M,write_ratio=0.4,threads=2",
         "mix:chase=ptrchase:footprint=8M,chain=16,threads=2;"
         "oltp=tpcc:footprint=16M"},
        {"Base-CSSD", "SkyByte-W", "SkyByte-Full"}, 4'000));

    // Per-tenant QoS: a noisy random-access tenant (3 threads of
    // uniform over 24M — every access an LLC compulsory miss, high
    // MLP, weight 1) co-located with a latency-sensitive pointer chase
    // (serial dependent loads, weight 4), swept over progressively
    // stricter throttling policies. The pinned reference
    // (tests/data/qos.reference.json) demonstrates the SLO effect: the
    // lat tenant's offchip_p99_ns drops measurably once weighted
    // admission throttles the noisy tenant's device request rate.
    {
        SweepSpec qos;
        qos.name = "qos";
        qos.title =
            "per-tenant QoS throttling (noisy uniform vs ptrchase SLO)";
        qos.defaultInstrPerThread = 20'000;
        qos.axes.push_back(workloadAxis(
            {"mix:noisy=uniform:footprint=24M,write_ratio=0.2,"
             "threads=3,qos=1;lat=ptrchase:footprint=8M,chain=16,qos=4"}));
        qos.axes.push_back(variantAxis({"SkyByte-W", "SkyByte-Full"}));
        // Single-value axis: a microbenchmark-scale memory system so the
        // noisy tenant's dirty lines actually evict to the device within
        // the sweep's instruction budget (with the default 16 MB LLC
        // nothing ever spills) and the shrunken write log makes the
        // per-tenant quota reachable between log flushes.
        SweepAxis scale{"scale", {}};
        scale.values.push_back({"micro", [](SweepPoint &p) {
                                    p.cfg.cpu.l2.sizeBytes = 128 * 1024;
                                    p.cfg.cpu.llc.sizeBytes = 256 * 1024;
                                    p.cfg.ssdCache.writeLogBytes =
                                        64 * 1024;
                                }});
        qos.axes.push_back(std::move(scale));
        SweepAxis policy{"qos_policy", {}};
        policy.values.push_back({"off", [](SweepPoint &) {}});
        // 5 us epochs, 4:1 credit split (256 credits -> 204 lat / 51
        // noisy): the lat tenant's budget is ~2x its measured offered
        // load (~105 ops / 5 us on SkyByte-Full) so only its retry
        // storms get paced, while the noisy tenant's MLP bursts are
        // spread across the epoch. Tighter pools bind the lat tenant
        // and its delay-hint retries then snowball into extra spend.
        policy.values.push_back({"admission", [](SweepPoint &p) {
                                     p.cfg.qos.weightedAdmission = true;
                                     p.cfg.qos.epochTicks =
                                         usToTicks(5.0);
                                     p.cfg.qos.creditsPerEpoch = 256;
                                 }});
        policy.values.push_back(
            {"admission+quota", [](SweepPoint &p) {
                 p.cfg.qos.weightedAdmission = true;
                 p.cfg.qos.epochTicks = usToTicks(5.0);
                 p.cfg.qos.creditsPerEpoch = 256;
                 p.cfg.qos.writeLogQuota = true;
             }});
        policy.values.push_back({"full", [](SweepPoint &p) {
                                     p.cfg.qos.weightedAdmission = true;
                                     p.cfg.qos.epochTicks =
                                         usToTicks(5.0);
                                     p.cfg.qos.creditsPerEpoch = 256;
                                     p.cfg.qos.writeLogQuota = true;
                                     p.cfg.qos.migrationShare = true;
                                 }});
        qos.axes.push_back(std::move(policy));
        registerSweepUnlocked(std::move(qos));
    }

    // Trace-capture replay: the workload axis is a tracelog: spec
    // pointing at an STRC capture the runner materializes first with
    // skybyte_tracegen. CI runs it in-process and under --run-dir and
    // `cmp`s the two reports.
    registerSweepUnlocked(variantGrid(
        "tracereplay",
        "replay an STRC trace capture at ./replay.trace",
        {"tracelog:path=replay.trace"},
        {"Base-CSSD", "SkyByte-Full"}, 4'000));
}

} // namespace detail
} // namespace skybyte
