/**
 * @file
 * Driver for the registered experiment sweeps:
 *
 *   skybyte_sweep --list
 *       Enumerate every registered figure/table/ablation sweep.
 *   skybyte_sweep --points <name>
 *       Print the labeled point grid of one sweep.
 *   skybyte_sweep --run <name> [--shard i/N] [-o out.json] [-j n]
 *       Run one sweep (or one shard of it) on the in-process worker
 *       pool and write the mergeable JSON report. "-o -" writes to
 *       stdout. Reports are committed write-temp-then-rename, so an
 *       interrupted run never leaves a truncated file. When the
 *       in-process run covered every point (no shard), the sweep's
 *       paper-style table (figure/table/ablation sweeps) follows on
 *       stdout — on stderr with "-o -". --run-dir runs print none.
 *   skybyte_sweep --run <name> --run-dir <dir> [--timeout-s S]
 *                 [--retries N] [--backoff-ms MS] [--resume]
 *                 [--require-complete]
 *       Hardened execution (sim/run_executor.h): every point runs in
 *       its own child process under a per-point wall-clock timeout,
 *       failed/timed-out points retry with seeded exponential backoff,
 *       each attempt is journaled to <dir>/journal.jsonl and each
 *       result committed to <dir>/points/<i>.json — so --resume after
 *       a driver crash re-runs only incomplete points. Points that
 *       still fail degrade the report to a partial one with a failure
 *       manifest instead of aborting the sweep; --require-complete
 *       turns that into a hard error.
 *   skybyte_sweep --merge a.json b.json... [-o out.json]
 *                 [--require-complete]
 *       Recombine shard reports; the output is byte-identical to an
 *       unsharded run of the same sweep. Partial shard reports merge
 *       too (their failure manifests combine); --require-complete
 *       rejects a merge whose result is not fully successful.
 *   skybyte_sweep --diff a.json b.json [--tol pct] [--keys a,b,...]
 *                 [--regress-only]
 *       Compare two reports of the same sweep: structure and ids must
 *       match exactly, numeric metrics may drift up to --tol percent
 *       (default 0 = numerically equal). Points that failed in one
 *       report but not the other count as drifts. When a.json is not a
 *       sweep report, the two files compare as plain JSON documents
 *       (the BENCH_*.json reports the benches emit; sim/benchdiff.h).
 *       --keys gates only numbers whose dotted JSON path contains one
 *       of the given substrings, which is how CI pins the
 *       machine-independent "speedup" ratios; --regress-only fails
 *       only when b is below a, so an improvement prints but passes.
 *
 * Exit codes (the CLI contract, also in the README):
 *   0  success
 *   1  usage error
 *   2  runtime error (I/O, malformed report, simulation failure)
 *   3  the sweep ran, but some point hit the in-sim safety tick limit
 *   4  --diff found drift beyond tolerance
 *   5  partial failure: some points failed permanently; the partial
 *      report (with its failure manifest) WAS written
 *   6  run-dir/resume state error (missing or mismatched journal,
 *      refusing to clobber), or incomplete result under
 *      --require-complete
 *
 * Scale knobs are the bench ones (SKYBYTE_BENCH_INSTR/THREADS/
 * FOOTPRINT_MB); the worker count, shard and retry backoff unit come
 * only from -j, --shard and --backoff-ms. SKYBYTE_FAULT injects
 * deterministic child faults (tests/CI only).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fs.h"
#include "sim/report.h"
#include "sim/run_executor.h"
#include "sim/sweep.h"

using namespace skybyte;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: skybyte_sweep --list\n"
        "       skybyte_sweep --points <name>\n"
        "       skybyte_sweep --run <name> [--shard i/N] [-o out.json]"
        " [-j nthreads]\n"
        "                     [--run-dir dir [--timeout-s secs]"
        " [--retries n]\n"
        "                     [--backoff-ms ms] [--resume]"
        " [--require-complete]]\n"
        "       skybyte_sweep --merge a.json b.json... [-o out.json]"
        " [--require-complete]\n"
        "       skybyte_sweep --diff a.json b.json [--tol pct]"
        " [--keys a,b,...] [--regress-only]\n"
        "an unsharded in-process --run prints the sweep's paper table"
        " after the report\n"
        "(stdout; stderr with -o -)\n"
        "scale: SKYBYTE_BENCH_INSTR, SKYBYTE_BENCH_THREADS,"
        " SKYBYTE_BENCH_FOOTPRINT_MB\n"
        "exit codes: 0 ok; 1 usage; 2 error; 3 sim-timeout point(s);\n"
        "            4 diff drift; 5 partial failure (manifest"
        " written);\n"
        "            6 run-dir/resume state error or --require-complete"
        " violation\n");
}

int
listSweeps()
{
    std::printf("%-16s %7s  %s\n", "name", "points", "title");
    for (const SweepSpec *spec : registeredSweeps()) {
        std::printf("%-16s %7zu  %s\n", spec->name.c_str(),
                    spec->pointCount(), spec->title.c_str());
    }
    return 0;
}

int
listPoints(const std::string &name)
{
    const SweepSpec *spec = findSweep(name);
    if (spec == nullptr) {
        std::fprintf(stderr, "skybyte_sweep: unknown sweep: %s\n",
                     name.c_str());
        return 1;
    }
    const ExperimentOptions opt = spec->optionsFromEnv();
    for (const LabeledPoint &lp : spec->expand(opt)) {
        std::printf("%4zu  %s\n", lp.index, lp.id().c_str());
    }
    return 0;
}

void
writeReport(const SweepReport &report, const std::string &path)
{
    const std::string text = toJson(report);
    if (path == "-") {
        std::fwrite(text.data(), 1, text.size(), stdout);
        return;
    }
    writeFileAtomic(path, text);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
}

std::string
defaultOutPath(const std::string &name, const ShardSpec &shard)
{
    std::string out_path = name;
    if (shard.count > 1) {
        out_path += ".shard" + std::to_string(shard.index) + "_"
                    + std::to_string(shard.count);
    }
    return out_path + ".json";
}

/** All --run/--merge knobs in one place. */
struct RunFlags
{
    std::string runDir;
    double timeoutSec = 0.0;
    std::uint32_t retries = 0;
    std::int64_t backoffMs = -1; ///< <0 = ExecutorOptions default
    bool resume = false;
    bool requireComplete = false;
};

int
runIsolated(const SweepSpec &spec, const ShardSpec &shard,
            const std::string &out_path, int nthreads,
            const RunFlags &flags)
{
    const ExperimentOptions opt = spec.optionsFromEnv();
    std::size_t total_points = 0;
    const std::vector<LabeledPoint> points =
        expandShard(spec, opt, shard, total_points);

    ExecutorOptions exec_opt;
    exec_opt.runDir = flags.runDir;
    exec_opt.nthreads = nthreads;
    exec_opt.retries = flags.retries;
    exec_opt.timeoutMs =
        static_cast<std::uint64_t>(flags.timeoutSec * 1000.0);
    if (flags.backoffMs >= 0) {
        exec_opt.backoffBaseMs =
            static_cast<std::uint64_t>(flags.backoffMs);
    }
    exec_opt.resume = flags.resume;

    const IsolatedExecution exec = runSweepIsolated(
        spec.name, total_points, shard, points, exec_opt);
    const SweepReport report =
        buildIsolatedReport(spec.name, total_points, shard, exec);
    writeReport(report, out_path);

    const std::size_t ok = exec.countWith(PointStatus::Ok);
    const std::size_t resumed = [&] {
        std::size_t n = 0;
        for (const PointOutcome &o : exec.outcomes)
            n += o.resumedFromDisk ? 1 : 0;
        return n;
    }();
    std::fprintf(stderr,
                 "%s: %zu/%zu points ok (%zu resumed, %zu failed, "
                 "%zu timed out; shard %u/%u)%s\n",
                 spec.name.c_str(), ok, exec.outcomes.size(), resumed,
                 exec.countWith(PointStatus::Failed),
                 exec.countWith(PointStatus::Timeout), shard.index,
                 shard.count,
                 exec.anySimTimeout() ? " [SIM TIMEOUT]" : "");
    for (const PointOutcome &o : exec.outcomes) {
        if (o.status != PointStatus::Ok) {
            std::fprintf(stderr, "  point %zu %s: %s after %u "
                         "attempt(s): %s\n",
                         o.index, o.id.c_str(),
                         pointStatusName(o.status), o.attempts,
                         o.detail.c_str());
        }
    }
    if (!exec.complete()) {
        if (flags.requireComplete) {
            std::fprintf(stderr,
                         "skybyte_sweep: incomplete sweep with "
                         "--require-complete\n");
            return 6;
        }
        return 5;
    }
    return exec.anySimTimeout() ? 3 : 0;
}

int
runSweepCmd(const std::string &name, const std::string &shard_arg,
            std::string out_path, int nthreads, const RunFlags &flags)
{
    const SweepSpec *spec = findSweep(name);
    if (spec == nullptr) {
        std::fprintf(stderr, "skybyte_sweep: unknown sweep: %s\n",
                     name.c_str());
        return 1;
    }
    const ShardSpec shard =
        shard_arg.empty() ? ShardSpec{} : parseShard(shard_arg);
    if (out_path.empty())
        out_path = defaultOutPath(name, shard);

    if (!flags.runDir.empty())
        return runIsolated(*spec, shard, out_path, nthreads, flags);

    const ExperimentOptions opt = spec->optionsFromEnv();
    const SweepExecution exec =
        runSweepShard(*spec, opt, shard, nthreads);

    SweepReport report;
    report.sweep = spec->name;
    report.totalPoints = exec.totalPoints;
    report.shardIndex = shard.index;
    report.shardCount = shard.count;
    bool timed_out = false;
    for (std::size_t i = 0; i < exec.points.size(); ++i) {
        const LabeledPoint &lp = exec.points[i];
        report.entries.push_back(
            {lp.index,
             sweepEntryJson(lp.index, lp.id(), exec.results[i])});
        timed_out = timed_out || exec.results[i].timedOut;
    }
    writeReport(report, out_path);
    if (spec->table && shard.count == 1)
        spec->table(*spec, exec, out_path == "-" ? stderr : stdout);
    std::fprintf(stderr, "%s: %zu/%zu points (shard %u/%u)%s\n",
                 spec->name.c_str(), exec.points.size(),
                 exec.totalPoints, shard.index, shard.count,
                 timed_out ? " [TIMED OUT]" : "");
    return timed_out ? 3 : 0;
}

SweepReport
readReportFile(const std::string &path)
{
    return parseSweepReport(readFileText(path));
}

int
mergeCmd(const std::vector<std::string> &paths, std::string out_path,
         bool require_complete)
{
    std::vector<SweepReport> shards;
    shards.reserve(paths.size());
    for (const std::string &path : paths)
        shards.push_back(readReportFile(path));
    const SweepReport merged = mergeSweepReports(shards);
    if (out_path.empty())
        out_path = merged.sweep + ".json";
    writeReport(merged, out_path);
    if (!merged.failures.empty()) {
        std::fprintf(stderr,
                     "%s: merged report is partial (%zu failed "
                     "point(s))\n",
                     merged.sweep.c_str(), merged.failures.size());
        return require_complete ? 6 : 5;
    }
    return 0;
}

std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string key; std::getline(in, key, ',');) {
        if (!key.empty())
            out.push_back(key);
    }
    if (out.empty())
        throw std::invalid_argument("empty --keys");
    return out;
}

int
diffCmd(const std::vector<std::string> &paths, const BenchDiffOptions &opt)
{
    if (paths.size() != 2)
        throw std::invalid_argument("--diff needs exactly two reports");
    const std::string text_a = readFileText(paths[0]);
    const std::string text_b = readFileText(paths[1]);
    if (text_a.find("\"skybyte_sweep_report\"") == std::string::npos) {
        // Plain JSON documents (bench reports): one diff, no points.
        const std::vector<BenchDrift> drifts =
            diffBenchJson(text_a, text_b, opt);
        for (const BenchDrift &d : drifts)
            std::fprintf(stderr, "%s\n", formatBenchDrift(d, opt).c_str());
        std::fprintf(stderr, "%s vs %s: %zu drift(s) beyond %g%%\n",
                     paths[0].c_str(), paths[1].c_str(), drifts.size(),
                     opt.tolPct);
        return drifts.empty() ? 0 : 4;
    }
    const SweepReport a = parseSweepReport(text_a);
    const SweepReport b = parseSweepReport(text_b);
    const std::vector<std::string> drifts = diffSweepReports(a, b, opt);
    if (drifts.empty()) {
        std::fprintf(stderr,
                     "%s: %zu points agree within %g%% tolerance\n",
                     a.sweep.c_str(), a.entries.size(), opt.tolPct);
        return 0;
    }
    constexpr std::size_t kMaxShown = 50;
    for (std::size_t i = 0; i < drifts.size() && i < kMaxShown; ++i)
        std::fprintf(stderr, "%s\n", drifts[i].c_str());
    if (drifts.size() > kMaxShown) {
        std::fprintf(stderr, "... and %zu more\n",
                     drifts.size() - kMaxShown);
    }
    std::fprintf(stderr, "%s: %zu metric(s) drifted beyond %g%%\n",
                 a.sweep.c_str(), drifts.size(), opt.tolPct);
    return 4;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode;
    std::string name;
    std::string shard_arg;
    std::string out_path;
    std::vector<std::string> merge_paths;
    int nthreads = 0;
    BenchDiffOptions diff_opt;
    diff_opt.tolPct = 0.0;
    RunFlags flags;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument("missing value for "
                                                + arg);
                return argv[++i];
            };
            if (arg == "--list") {
                mode = "list";
            } else if (arg == "--points") {
                mode = "points";
                name = next();
            } else if (arg == "--run") {
                mode = "run";
                name = next();
            } else if (arg == "--merge") {
                mode = "merge";
            } else if (arg == "--diff") {
                mode = "diff";
            } else if (arg == "--tol") {
                diff_opt.tolPct = std::stod(next());
            } else if (arg == "--keys") {
                diff_opt.keys = splitCsv(next());
            } else if (arg == "--regress-only") {
                diff_opt.regressOnly = true;
            } else if (arg == "--shard") {
                shard_arg = next();
            } else if (arg == "--run-dir") {
                flags.runDir = next();
            } else if (arg == "--timeout-s") {
                flags.timeoutSec = std::stod(next());
            } else if (arg == "--retries") {
                flags.retries =
                    static_cast<std::uint32_t>(std::stoul(next()));
            } else if (arg == "--backoff-ms") {
                flags.backoffMs = std::stol(next());
            } else if (arg == "--resume") {
                flags.resume = true;
            } else if (arg == "--require-complete") {
                flags.requireComplete = true;
            } else if (arg == "-o" || arg == "--output") {
                out_path = next();
            } else if (arg == "-j" || arg == "--nthreads") {
                nthreads = std::stoi(next());
            } else if (arg == "-h" || arg == "--help") {
                usage();
                return 0;
            } else if ((mode == "merge" || mode == "diff")
                       && !arg.empty() && arg[0] != '-') {
                merge_paths.push_back(arg);
            } else {
                throw std::invalid_argument("unknown option: " + arg);
            }
        }
        if (mode.empty())
            throw std::invalid_argument("pick one of --list/--points/"
                                        "--run/--merge/--diff");
        if (flags.runDir.empty()
            && (flags.resume || flags.retries != 0
                || flags.timeoutSec != 0.0)) {
            throw std::invalid_argument(
                "--resume/--retries/--timeout-s need --run-dir");
        }

        if (mode == "list")
            return listSweeps();
        if (mode == "points")
            return listPoints(name);
        if (mode == "run")
            return runSweepCmd(name, shard_arg, out_path, nthreads,
                               flags);
        if (mode == "diff")
            return diffCmd(merge_paths, diff_opt);
        if (merge_paths.empty())
            throw std::invalid_argument("--merge needs report files");
        return mergeCmd(merge_paths, out_path, flags.requireComplete);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "skybyte_sweep: %s\n", e.what());
        usage();
        return 1;
    } catch (const RunDirError &e) {
        std::fprintf(stderr, "skybyte_sweep: %s\n", e.what());
        return 6;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "skybyte_sweep: %s\n", e.what());
        return 2;
    }
}
