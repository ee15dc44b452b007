/**
 * @file
 * skybyte_e2e: one benchmark run of one workload.
 *
 *   skybyte_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *               [--digests <file>]
 *   skybyte_e2e --workload <name> --seed <n> --pin-digests <file>
 *
 * Runs the workload's seven sweep points serially on this thread, sweep
 * after sweep. The number of sweeps follows from --seconds and the
 * workload's sweep budget alone, never from how fast the sweeps go, so
 * two trees are always measured over the same number of repeats. A run
 * that overruns its safety cap stops and fails the points it skipped.
 * Human-readable lines go to stderr; the last stdout line is the JSON
 * result. Exit 0 only when every point passed the correctness gate.
 *
 * Host interference on a shared machine only ever adds time, and it
 * comes and goes from one sweep to the next, so a sweep time is the sum
 * over points of each point's fastest repeat in the run. Set-up time is
 * the sum of each point's median set-up (see README.md for why).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "e2e.h"

namespace {

using namespace e2e;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string digests;
    std::string pinDigests;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "skybyte_e2e: " << error << "\n"
              << "usage: skybyte_e2e --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--digests <file>]\n"
              << "       skybyte_e2e --workload <name> --seed <n> "
                 "--pin-digests <file>\nworkloads:";
    for (const BenchWorkload &w : benchWorkloads())
        std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &value)
{
    std::size_t used = 0;
    std::uint64_t n = 0;
    try {
        n = std::stoull(value, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != value.size() || value[0] == '-')
        usage(flag + " needs a whole number, got '" + value + "'");
    return n;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = parseCount(flag, value);
        } else if (flag == "--seconds") {
            opt.seconds = static_cast<double>(parseCount(flag, value));
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
        } else if (flag == "--digests") {
            opt.digests = value;
        } else if (flag == "--pin-digests") {
            opt.pinDigests = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (findBenchWorkload(opt.workload) == nullptr)
        usage("unknown workload '" + opt.workload + "'");
    return opt;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Host times of one point in one sweep (zero when it failed). */
struct PointTimes
{
    /** Construction through toJson and teardown. */
    double wall = 0;
    double construct = 0;
    double run = 0;
    double report = 0;
    RefillTally refill;
    RefillTally warmRefill;
};

/** One standalone probe round of one point. */
struct ProbeTimes
{
    PreconditionProbe precondition;
    CacheProbe cache;
};

/** Row k holds sweep k, column p point p. */
template <typename T>
using Rounds = std::vector<std::vector<T>>;

/**
 * Runs sweeps of one workload and gates every point: no exception, no
 * timeout, no lost work, the pinned digest (when given) on the point's
 * first report, and byte-identical reports on every later sweep —
 * traced or not.
 */
class Runner
{
  public:
    Runner(std::vector<BenchPoint> points, const DigestTable *digests)
        : points_(std::move(points)), digests_(digests),
          reference_(points_.size()), results_(points_.size())
    {}

    std::vector<PointTimes>
    sweep(bool traced)
    {
        std::vector<PointTimes> times(points_.size());
        for (std::size_t i = 0; i < points_.size(); ++i) {
            attempted_++;
            const Clock::time_point start = Clock::now();
            std::string why;
            try {
                const PointRun r = traced ? runPointTraced(points_[i].point)
                                          : runPoint(points_[i].point);
                times[i] = {secondsSince(start), r.constructS, r.runS,
                            r.reportS, r.refill, r.warmRefill};
                why = checkPointRun(r);
                if (why.empty())
                    why = checkReport(i, r);
            } catch (const std::exception &e) {
                why = std::string("exception: ") + e.what();
            }
            if (!why.empty()) {
                failed_++;
                std::cerr << "FAIL " << points_[i].key
                          << (traced ? " (traced): " : ": ") << why << "\n";
            }
        }
        return times;
    }

    /** Count @p sweeps skipped sweeps as attempted and failed. */
    void
    skip(std::size_t sweeps)
    {
        const std::uint64_t n = sweeps * points_.size();
        attempted_ += n;
        failed_ += n;
        std::cerr << "FAIL safety cap reached: skipped " << sweeps
                  << " sweeps (" << n << " points)\n";
    }

    std::vector<ProbeTimes>
    probe() const
    {
        std::vector<ProbeTimes> times;
        for (const BenchPoint &bp : points_)
            times.push_back(
                {probePrecondition(bp.point), probeCaches(bp.point)});
        return times;
    }

    /** First passing result of every point (simulated counts). */
    const std::vector<skybyte::SimResult> &results() const
    {
        return results_;
    }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::string
    checkReport(std::size_t i, const PointRun &r)
    {
        if (!reference_[i].empty()) {
            return r.json == reference_[i]
                       ? ""
                       : "report differs from this run's first report";
        }
        if (digests_ != nullptr) {
            const std::string why =
                checkDigest(*digests_, points_[i].key, r.json);
            if (!why.empty())
                return why;
        }
        reference_[i] = r.json;
        results_[i] = r.result;
        return "";
    }

    std::vector<BenchPoint> points_;
    const DigestTable *digests_;
    std::vector<std::string> reference_;
    std::vector<skybyte::SimResult> results_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Sum over points of each point's fastest repeat of @p f. */
template <typename T, typename F>
double
best(const Rounds<T> &rounds, F f)
{
    double total = 0;
    for (std::size_t p = 0; p < rounds[0].size(); ++p) {
        double fastest = f(rounds[0][p]);
        for (const std::vector<T> &round : rounds)
            fastest = std::min(fastest, f(round[p]));
        total += fastest;
    }
    return total;
}

/** Sum over points of each point's median repeat of @p f. */
template <typename T, typename F>
double
typical(const Rounds<T> &rounds, F f)
{
    double total = 0;
    for (std::size_t p = 0; p < rounds[0].size(); ++p) {
        std::vector<double> repeats;
        for (const std::vector<T> &round : rounds)
            repeats.push_back(f(round[p]));
        total += median(std::move(repeats));
    }
    return total;
}

/** Sum over the points of one round. */
template <typename T, typename F>
double
total(const std::vector<T> &round, F f)
{
    double sum = 0;
    for (const T &point : round)
        sum += f(point);
    return sum;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

Metric
count(const char *name, double value)
{
    return {name, value, "count"};
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
instructions(const Runner &runner)
{
    double sum = 0;
    for (const skybyte::SimResult &r : runner.results())
        sum += static_cast<double>(r.committedInstructions);
    return sum;
}

/** Untraced sweeps of a --trace 0 run: at least three. */
std::size_t
sweepCount(const BenchWorkload &w, const Options &opt)
{
    return std::max<std::size_t>(
        3, static_cast<std::size_t>(opt.seconds / w.sweepBudgetS));
}

/**
 * True once the run has overrun its safety cap: four times --seconds
 * plus 30 s, so that a 30 s run stops within 150 s on a slow host.
 */
bool
pastCap(Clock::time_point start, const Options &opt)
{
    return secondsSince(start) > 4 * opt.seconds + 30;
}

std::vector<Metric>
endToEnd(Runner &runner, const BenchWorkload &w, const Options &opt)
{
    Rounds<PointTimes> sweeps;
    const Clock::time_point start = Clock::now();
    const std::size_t planned = sweepCount(w, opt);
    while (sweeps.size() < planned) {
        if (!sweeps.empty() && pastCap(start, opt)) {
            runner.skip(planned - sweeps.size());
            break;
        }
        sweeps.push_back(runner.sweep(false));
    }

    const auto wall = [](const PointTimes &t) { return t.wall; };
    const double wall_s = best(sweeps, wall);
    std::fprintf(stderr, "%zu sweeps; median sweep %.6f s\n", sweeps.size(),
                 typical(sweeps, wall));
    return {
        {"wall_s", wall_s, "s"},
        {"setup_s",
         typical(sweeps, [](const PointTimes &t) { return t.construct; }),
         "s"},
        {"run_s", best(sweeps, [](const PointTimes &t) { return t.run; }),
         "s"},
        {"sim_minstr_per_s", instructions(runner) / 1e6 / wall_s,
         "Minstr/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

std::vector<Metric>
perLayer(Runner &runner, const BenchWorkload &w, const Options &opt)
{
    // A first untraced sweep pins every point's reference report and
    // warms the process up; it is left out of the overhead. Then traced
    // and untraced sweeps alternate so both see the same machine state,
    // and the probes run after each pair, outside the sweeps' spans.
    // A round costs about three sweeps.
    const Clock::time_point start = Clock::now();
    runner.sweep(false);
    Rounds<PointTimes> plain;
    Rounds<PointTimes> traced;
    Rounds<ProbeTimes> probes;
    const std::size_t planned =
        std::max<std::size_t>(1, sweepCount(w, opt) / 3);
    while (traced.size() < planned) {
        if (!traced.empty() && pastCap(start, opt)) {
            runner.skip(2 * (planned - traced.size()));
            break;
        }
        traced.push_back(runner.sweep(true));
        plain.push_back(runner.sweep(false));
        probes.push_back(runner.probe());
    }
    std::fprintf(stderr, "%zu rounds of traced + untraced sweep + probes\n",
                 traced.size());

    using T = PointTimes;
    using P = ProbeTimes;
    const double construct = best(traced, [](const T &t) {
        return t.construct;
    });
    const double run = best(traced, [](const T &t) { return t.run; });
    const double precondition = best(probes, [](const P &p) {
        return p.precondition.seconds;
    });
    const double cache_calls = total(probes[0], [](const P &p) {
        return static_cast<double>(p.cache.calls);
    });
    const auto wall = [](const T &t) { return t.wall; };

    std::vector<Metric> m = {
        {"sim.construct_s", construct, "s"},
        {"sim.run_s", run, "s"},
        {"sim.report_s", best(traced, [](const T &t) { return t.report; }),
         "s"},
        {"sim.setup_other_s",
         best(traced,
              [](const T &t) { return t.construct - t.warmRefill.seconds; })
             - precondition,
         "s"},
        {"sim.run_self_s",
         best(traced, [](const T &t) { return t.run - t.refill.seconds; }),
         "s"},
        {"sim.run_ns_per_instr", run * 1e9 / instructions(runner),
         "ns/instr"},
        {"ssd.precondition_s", precondition, "s"},
        count("ssd.precondition_pages", total(probes[0], [](const P &p) {
                  return static_cast<double>(p.precondition.pages);
              })),
        {"trace.refill_s",
         best(traced, [](const T &t) { return t.refill.seconds; }), "s"},
        count("trace.refill_calls", total(traced[0], [](const T &t) {
                  return static_cast<double>(t.refill.calls);
              })),
        {"trace.warmup_refill_s",
         best(traced, [](const T &t) { return t.warmRefill.seconds; }), "s"},
        count("trace.warmup_refill_calls", total(traced[0], [](const T &t) {
                  return static_cast<double>(t.warmRefill.calls);
              })),
        {"trace.overhead_s", best(traced, wall) - best(plain, wall), "s"},
        count("cpu.cache_calls", cache_calls),
        {"cpu.cache_ns_per_call",
         best(probes, [](const P &p) { return p.cache.seconds; }) * 1e9
             / cache_calls,
         "ns/call"},
    };

    // Simulated counts: exact, and identical in every sweep of the run.
    const auto sum = [&](const char *name, auto field) {
        double v = 0;
        for (const skybyte::SimResult &r : runner.results())
            v += static_cast<double>(field(r));
        m.push_back(count(name, v));
    };
    using R = skybyte::SimResult;
    sum("sim.instructions", [](const R &r) { return r.committedInstructions; });
    sum("cpu.llc_accesses", [](const R &r) { return r.llcAccesses; });
    sum("cpu.llc_misses", [](const R &r) { return r.llcMisses; });
    sum("cpu.ctx_switches", [](const R &r) { return r.contextSwitches; });
    sum("cxl.bytes", [](const R &r) { return r.cxlBytes; });
    m.back().unit = "bytes";
    sum("mem.host_reads", [](const R &r) { return r.hostReads; });
    sum("core.ssd_read_hits", [](const R &r) { return r.ssdReadHits; });
    sum("core.ssd_read_misses", [](const R &r) { return r.ssdReadMisses; });
    sum("core.log_appends", [](const R &r) { return r.logAppends; });
    sum("core.promotions", [](const R &r) { return r.promotions; });
    sum("ssd.flash_reads", [](const R &r) { return r.flashReads; });
    sum("ssd.flash_programs", [](const R &r) {
        return r.flashHostPrograms + r.flashGcPrograms;
    });
    sum("ssd.gc_runs", [](const R &r) { return r.gcRuns; });
    return m;
}

int
pin(const Options &opt, const BenchWorkload &w)
{
    DigestTable table;
    if (std::ifstream(opt.pinDigests))
        table = parseDigests(readFile(opt.pinDigests));
    for (const BenchPoint &bp : benchPoints(w, opt.seed)) {
        const PointRun r = runPoint(bp.point);
        const std::string why = checkPointRun(r);
        if (!why.empty()) {
            std::cerr << "FAIL " << bp.key << ": " << why << "\n";
            return 1;
        }
        table[bp.key] = digestOf(r.json);
        std::cerr << bp.key << " " << table[bp.key] << "\n";
    }
    std::ofstream(opt.pinDigests) << formatDigests(table);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const BenchWorkload &w = *findBenchWorkload(opt.workload);
    try {
        if (!opt.pinDigests.empty())
            return pin(opt, w);

        // Digests are pinned for a set of seeds; a seed outside it is
        // held out and gated by repeat and traced identity only.
        DigestTable digests;
        if (!opt.digests.empty())
            digests = parseDigests(readFile(opt.digests));
        std::vector<BenchPoint> points = benchPoints(w, opt.seed);
        const bool gated = digests.count(points[0].key) > 0;
        Runner runner(std::move(points), gated ? &digests : nullptr);
        std::fprintf(stderr, "%s: seed %llu, digest gate %s\n",
                     w.name.c_str(),
                     static_cast<unsigned long long>(opt.seed),
                     gated ? "on" : "off (seed not pinned)");

        const std::vector<Metric> metrics = opt.trace
                                                ? perLayer(runner, w, opt)
                                                : endToEnd(runner, w, opt);
        for (const Metric &x : metrics) {
            std::fprintf(stderr, "%-26s %16.6f %s\n", x.name.c_str(),
                         x.value, x.unit.c_str());
        }
        std::fprintf(stderr, "points_failed_ratio %.6f (%llu of %llu)\n",
                     static_cast<double>(runner.failed())
                         / static_cast<double>(runner.attempted()),
                     static_cast<unsigned long long>(runner.failed()),
                     static_cast<unsigned long long>(runner.attempted()));

        const bool correct = runner.failed() == 0;
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": {",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(runner.attempted()),
                    static_cast<unsigned long long>(runner.failed()));
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const Metric &x = metrics[i];
            std::printf("%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}",
                        i == 0 ? "" : ", ", x.name.c_str(),
                        std::isfinite(x.value) ? x.value : 0.0,
                        x.unit.c_str());
        }
        std::printf("}}\n");
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "skybyte_e2e: " << e.what() << "\n";
        return 2;
    }
}
