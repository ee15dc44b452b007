#include "sim/sweep.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>

#include "trace/workload.h"

namespace skybyte {

std::vector<std::string>
SweepAxis::labels() const
{
    std::vector<std::string> out;
    out.reserve(values.size());
    for (const AxisValue &v : values)
        out.push_back(v.label);
    return out;
}

std::string
LabeledPoint::col() const
{
    std::string out;
    for (std::size_t i = 1; i < labels.size(); ++i) {
        if (i > 1)
            out += '/';
        out += labels[i];
    }
    return out;
}

std::string
LabeledPoint::id() const
{
    std::string out = row();
    const std::string c = col();
    if (!c.empty()) {
        out += '/';
        out += c;
    }
    return out;
}

std::size_t
SweepSpec::pointCount() const
{
    std::size_t n = 1;
    for (const SweepAxis &axis : axes)
        n *= axis.values.size();
    return axes.empty() ? 0 : n;
}

std::vector<LabeledPoint>
SweepSpec::expand(const ExperimentOptions &opt) const
{
    std::vector<LabeledPoint> out;
    const std::size_t total = pointCount();
    out.reserve(total);
    for (std::size_t index = 0; index < total; ++index) {
        LabeledPoint lp;
        lp.index = index;
        lp.point = makeSweepPoint(baseVariant, "", opt);
        // Row-major decode: first axis varies slowest.
        std::size_t rem = index;
        std::vector<std::size_t> pick(axes.size());
        for (std::size_t a = axes.size(); a-- > 0;) {
            pick[a] = rem % axes[a].values.size();
            rem /= axes[a].values.size();
        }
        lp.labels.reserve(axes.size());
        for (std::size_t a = 0; a < axes.size(); ++a) {
            const AxisValue &v = axes[a].values[pick[a]];
            lp.labels.push_back(v.label);
            if (v.apply)
                v.apply(lp.point);
        }
        out.push_back(std::move(lp));
    }
    return out;
}

ExperimentOptions
SweepSpec::optionsFromEnv() const
{
    ExperimentOptions opt = ExperimentOptions::fromEnv();
    if (std::getenv("SKYBYTE_BENCH_INSTR") == nullptr)
        opt.instrPerThread = defaultInstrPerThread;
    return opt;
}

SweepAxis
workloadAxis(std::vector<std::string> names)
{
    SweepAxis axis{"workload", {}};
    axis.values.reserve(names.size());
    for (std::string &name : names) {
        axis.values.push_back(
            {name, [name](SweepPoint &p) { p.workload = name; }});
    }
    return axis;
}

SweepAxis
paperWorkloadAxis()
{
    return workloadAxis(paperWorkloadNames());
}

SweepAxis
variantAxis(std::vector<std::string> names)
{
    SweepAxis axis{"variant", {}};
    axis.values.reserve(names.size());
    for (std::string &name : names) {
        axis.values.push_back({name, [name](SweepPoint &p) {
                                   p.cfg = makeBenchConfig(name);
                                   p.cfg.seed = p.opt.seed;
                               }});
    }
    return axis;
}

SweepAxis
knobAxis(std::string name, std::vector<AxisValue> values)
{
    return SweepAxis{std::move(name), std::move(values)};
}

namespace detail {
/** Defined in sweep_registry.cc: the paper's sweep definitions. */
void registerBuiltinSweeps();
} // namespace detail

namespace {

std::mutex &
registryMutex()
{
    static std::mutex m;
    return m;
}

std::map<std::string, SweepSpec> &
registryLocked()
{
    static std::map<std::string, SweepSpec> specs;
    return specs;
}

void
insertSpec(SweepSpec spec)
{
    if (spec.name.empty())
        throw std::invalid_argument("sweep name must not be empty");
    if (spec.axes.empty()) {
        throw std::invalid_argument("sweep " + spec.name
                                    + " has no axes");
    }
    auto [it, inserted] =
        registryLocked().emplace(spec.name, std::move(spec));
    if (!inserted) {
        throw std::invalid_argument("duplicate sweep name: "
                                    + it->first);
    }
}

void
ensureBuiltins()
{
    static std::once_flag once;
    std::call_once(once, [] {
        std::lock_guard<std::mutex> lock(registryMutex());
        detail::registerBuiltinSweeps();
    });
}

} // namespace

namespace detail {

/** Registration hook shared with sweep_registry.cc (not public API). */
void
registerSweepUnlocked(SweepSpec spec)
{
    insertSpec(std::move(spec));
}

} // namespace detail

void
registerSweep(SweepSpec spec)
{
    ensureBuiltins();
    std::lock_guard<std::mutex> lock(registryMutex());
    insertSpec(std::move(spec));
}

const SweepSpec *
findSweep(const std::string &name)
{
    ensureBuiltins();
    std::lock_guard<std::mutex> lock(registryMutex());
    const auto &specs = registryLocked();
    const auto it = specs.find(name);
    return it == specs.end() ? nullptr : &it->second;
}

std::vector<const SweepSpec *>
registeredSweeps()
{
    ensureBuiltins();
    std::lock_guard<std::mutex> lock(registryMutex());
    std::vector<const SweepSpec *> out;
    for (const auto &[name, spec] : registryLocked())
        out.push_back(&spec);
    return out;
}

ShardSpec
parseShard(const std::string &text)
{
    const auto slash = text.find('/');
    if (slash == std::string::npos || slash == 0
        || slash + 1 >= text.size()) {
        throw std::invalid_argument("expected shard i/N, got: " + text);
    }
    const auto parse_part = [&](const std::string &part) {
        // Digits only: stoul would accept (and wrap) "-1".
        if (part.empty()
            || part.find_first_not_of("0123456789") != std::string::npos)
            throw std::invalid_argument("bad shard number: " + text);
        unsigned long v = 0;
        try {
            v = std::stoul(part, nullptr, 10);
        } catch (const std::exception &) {
            throw std::invalid_argument("bad shard number: " + text);
        }
        if (v > 0xffffffffUL)
            throw std::invalid_argument("bad shard number: " + text);
        return static_cast<std::uint32_t>(v);
    };
    ShardSpec shard;
    shard.index = parse_part(text.substr(0, slash));
    shard.count = parse_part(text.substr(slash + 1));
    if (shard.count == 0 || shard.index >= shard.count) {
        throw std::invalid_argument("shard index out of range: " + text);
    }
    return shard;
}

bool
shardOwns(const ShardSpec &shard, std::size_t index)
{
    return index % shard.count == shard.index;
}

std::vector<LabeledPoint>
expandShard(const SweepSpec &spec, const ExperimentOptions &opt,
            const ShardSpec &shard, std::size_t &totalPoints)
{
    std::vector<LabeledPoint> all = spec.expand(opt);
    totalPoints = all.size();
    std::vector<LabeledPoint> owned;
    for (LabeledPoint &lp : all) {
        if (shardOwns(shard, lp.index))
            owned.push_back(std::move(lp));
    }
    return owned;
}

SweepExecution
runSweepShard(const SweepSpec &spec, const ExperimentOptions &opt,
              const ShardSpec &shard, int nthreads)
{
    SweepExecution exec;
    exec.points = expandShard(spec, opt, shard, exec.totalPoints);
    std::vector<SweepPoint> points;
    points.reserve(exec.points.size());
    for (const LabeledPoint &lp : exec.points)
        points.push_back(lp.point);
    exec.results = runSweep(points, nthreads);
    return exec;
}

const SimResult &
SweepExecution::at(const std::string &row, const std::string &col) const
{
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].row() == row && points[i].col() == col)
            return results.at(i);
    }
    throw std::out_of_range("sweep: no point at " + row + "/" + col);
}

} // namespace skybyte
