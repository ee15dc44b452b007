/**
 * @file
 * The builtin lint rule families — the repo's determinism discipline
 * as data, registered the way sweep_registry.cc registers sweeps.
 *
 * Each family is a banned-identifier scan over a path scope. The
 * scopes and allowlists are deliberately explicit lists, not
 * heuristics: when a new file legitimately needs a banned name, either
 * extend the allowlist here (reviewed like any code change) or carry a
 * justified `// skybyte-lint: allow(<rule>) why` pragma at the use.
 */

#include <array>
#include <initializer_list>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace skybyte {
namespace detail {

void registerLintRuleUnlocked(LintRule rule); // lint.cc

namespace {

bool
underAny(const std::string &path,
         std::initializer_list<const char *> prefixes)
{
    for (const char *prefix : prefixes) {
        if (path.rfind(prefix, 0) == 0)
            return true;
    }
    return false;
}

/** One banned name and the message explaining the ban. */
struct BannedIdent
{
    const char *ident;
    std::string message;
};

/**
 * The shared rule shape: flag every line where a banned identifier
 * appears as a whole token, minus (file, identifier) allowlist pairs.
 */
LintRule
bannedIdentRule(std::string name, std::string title,
                std::function<bool(const std::string &)> inScope,
                std::vector<BannedIdent> banned,
                std::vector<std::pair<std::string, std::string>>
                    allowFileIdent = {})
{
    LintRule rule;
    rule.name = std::move(name);
    rule.title = std::move(title);
    rule.inScope = std::move(inScope);
    rule.check = [ruleName = rule.name, banned = std::move(banned),
                  allow = std::move(allowFileIdent)](
                     const SourceFile &file,
                     std::vector<LintFinding> &out) {
        for (const BannedIdent &b : banned) {
            bool allowed = false;
            for (const auto &[path, ident] : allow) {
                if (file.path == path && ident == b.ident) {
                    allowed = true;
                    break;
                }
            }
            if (allowed)
                continue;
            for (std::size_t line : identifierLines(file, b.ident)) {
                LintFinding f;
                f.rule = ruleName;
                f.line = line;
                f.message = b.message;
                out.push_back(std::move(f));
            }
        }
    };
    return rule;
}

/**
 * Rule family 1 — no nondeterminism in simulation code.
 *
 * A SimResult must be a pure function of (config, workload spec,
 * seed). Wall clocks, libc PRNGs and environment reads anywhere in the
 * simulation layers would break the byte-identical fingerprint gates
 * the whole verification discipline rests on. The sanctioned sources
 * are common/rng.h (seeded xoshiro streams) and EventQueue::now()
 * (simulated time).
 *
 * Allowlisted: the experiment/sweep front ends read the documented
 * SKYBYTE_* environment knobs before any simulation starts, and the
 * process-isolation driver (run_executor) measures child wall-clock
 * for timeouts/backoff — driver bookkeeping that never feeds a
 * SimResult metric.
 */
LintRule
nondeterminismRule()
{
    auto msg = [](const char *what) {
        return std::string("nondeterministic source '") + what
               + "' in simulation code: results must be a pure "
                 "function of config+workload+seed (use common/rng.h "
                 "and EventQueue time)";
    };
    std::vector<BannedIdent> banned;
    for (const char *ident :
         {"rand", "srand", "rand_r", "random", "drand48", "lrand48",
          "time", "clock", "gettimeofday", "clock_gettime",
          "system_clock", "steady_clock", "high_resolution_clock",
          "getenv"})
        banned.push_back({ident, msg(ident)});
    return bannedIdentRule(
        "nondeterminism",
        "no wall-clock/libc-rand/getenv in simulation layers",
        [](const std::string &path) {
            return underAny(path,
                            {"src/common/", "src/core/", "src/cpu/",
                             "src/cxl/", "src/mem/", "src/ssd/",
                             "src/sim/"});
        },
        std::move(banned),
        {
            // SKYBYTE_BENCH_* scale knobs, read before any sim runs.
            {"src/sim/experiment.cc", "getenv"},
            // SKYBYTE_BENCH_INSTR presence test.
            {"src/sim/sweep.cc", "getenv"},
            // SKYBYTE_FAULT child-fault injection (tests/CI only).
            {"src/sim/run_executor.cc", "getenv"},
            // Child wall-clock timeouts and retry backoff pacing:
            // driver scheduling, never a SimResult input.
            {"src/sim/run_executor.cc", "steady_clock"},
        });
}

/**
 * Rule family 2 — no unordered containers in result-producing code.
 *
 * std::unordered_{map,set} iteration order is standard-library
 * specific, so any traversal that feeds simulation behavior or
 * serialized output silently unpins the cross-platform fingerprints
 * (and per-node heap churn does not belong on the request path). Index
 * a vector by page or slot, or use an ordered std::map, or carry a
 * justified pragma when the container is never iterated (pure
 * membership) or feeds an order-insensitive reduction.
 */
LintRule
unorderedContainerRule()
{
    auto msg = [](const char *what) {
        return std::string("'") + what
               + "' in result-producing code: iteration order is "
                 "stdlib-specific and per-node allocation is hot-path "
                 "churn; index a vector by page or slot, or use an "
                 "ordered std::map, or justify with an allow pragma";
    };
    std::vector<BannedIdent> banned;
    for (const char *ident :
         {"unordered_map", "unordered_set", "unordered_multimap",
          "unordered_multiset"})
        banned.push_back({ident, msg(ident)});
    return bannedIdentRule(
        "unordered-container",
        "no unordered-container use where results are produced",
        [](const std::string &path) {
            return underAny(path,
                            {"src/core/", "src/cpu/", "src/cxl/",
                             "src/mem/", "src/ssd/", "src/sim/",
                             "src/trace/"});
        },
        std::move(banned));
}

/**
 * Rule family 3 — crash-safe writes only.
 *
 * Every report/journal writer must go through common/fs.h:
 * writeFileAtomic() (temp+rename, no reader ever sees a truncated
 * file) or appendLine() (single O_APPEND write). A raw ofstream/fopen
 * reintroduces exactly the torn-file windows PR 6 closed. fs.cc
 * itself implements the helpers and is the one sanctioned user.
 */
LintRule
rawFileWriteRule()
{
    auto msg = [](const char *what) {
        return std::string("raw '") + what
               + "' write: reports and journals must use common/fs.h "
                 "(writeFileAtomic/appendLine) so a crash never "
                 "leaves a truncated file";
    };
    std::vector<BannedIdent> banned;
    for (const char *ident : {"ofstream", "fopen", "freopen"})
        banned.push_back({ident, msg(ident)});
    return bannedIdentRule(
        "raw-file-write",
        "no raw ofstream/fopen outside common/fs.cc",
        [](const std::string &path) {
            return path != "src/common/fs.cc";
        },
        std::move(banned));
}

/**
 * Rule family 4 — no heap churn in the request path.
 *
 * PR 4 made the CXL.mem request path allocation-free at steady state
 * (slab records, inline callbacks, dense tables); this rule
 * keeps it that way by flagging new/make_shared/make_unique in the
 * request-path files. Construction-time allocations are fine — mark
 * them with a justified allow pragma.
 */
LintRule
hotPathAllocRule()
{
    // The files on the uncore -> router -> controller -> flash demand
    // path, where a per-request allocation costs throughput.
    static const std::array<const char *, 9> kRequestPathFiles = {
        "src/core/ssd_controller.cc",
        "src/core/astriflash.cc",
        "src/core/page_cache.cc",
        "src/core/write_log.cc",
        "src/core/plb.cc",
        "src/core/reclaim.cc",
        "src/cpu/core.cc",
        "src/cpu/uncore.cc",
        "src/cpu/cache.cc",
    };
    auto msg = [](const char *what) {
        return std::string("'") + what
               + "' in a request-path file: the steady-state request "
                 "path is allocation-free (slabs, inline callbacks, "
                 "dense tables); justify construction-time use with an "
                 "allow pragma";
    };
    std::vector<BannedIdent> banned;
    for (const char *ident : {"new", "make_shared", "make_unique"})
        banned.push_back({ident, msg(ident)});
    return bannedIdentRule(
        "hot-path-alloc",
        "no new/make_shared/make_unique in request-path files",
        [](const std::string &path) {
            for (const char *file : kRequestPathFiles) {
                if (path == file)
                    return true;
            }
            return false;
        },
        std::move(banned));
}

/**
 * Rule family 5 — no mutable `static` state in workload generators.
 *
 * The in-process sweep pool (runSweep, `skybyte_sweep -j`) runs whole
 * points on concurrent host threads, so workload refills of different
 * points execute at the same time. A mutable function-local or
 * namespace-scope `static` in a generator is state shared across those
 * points: it races, and it makes one point's trace depend on which
 * other points happened to run beside it. `static const`/`static
 * constexpr` data is immutable and fine; intentionally synchronized
 * singletons (the workload registry) carry justified allow pragmas.
 *
 * Scope is the .cc files under src/trace: declarations in headers are
 * member functions or `static constexpr` constants, while local
 * statics — the hazard — live in function bodies.
 */
LintRule
sharedStaticStateRule()
{
    LintRule rule;
    rule.name = "shared-static-state";
    rule.title = "no mutable `static` state in workload generators";
    rule.inScope = [](const std::string &path) {
        return path.size() >= 3
               && path.compare(path.size() - 3, 3, ".cc") == 0
               && underAny(path, {"src/trace/"});
    };
    rule.check = [](const SourceFile &file,
                    std::vector<LintFinding> &out) {
        for (std::size_t i = 0; i < file.lines.size(); ++i) {
            const std::string &code = file.lines[i].code;
            if (!containsIdentifier(code, "static"))
                continue;
            // Whole-token match: static_cast/static_assert don't trip
            // the scan, and const/constexpr on the same line marks the
            // object immutable.
            if (containsIdentifier(code, "const")
                || containsIdentifier(code, "constexpr")) {
                continue;
            }
            LintFinding f;
            f.rule = "shared-static-state";
            f.line = i + 1;
            f.message =
                "mutable 'static' in a workload generator: the sweep "
                "pool runs points' refills on concurrent host threads, "
                "so hidden shared state races and couples points; make "
                "it const/constexpr, per-instance, or justify the "
                "synchronization with an allow pragma";
            out.push_back(std::move(f));
        }
    };
    return rule;
}

} // namespace

void
registerBuiltinLintRules()
{
    registerLintRuleUnlocked(nondeterminismRule());
    registerLintRuleUnlocked(unorderedContainerRule());
    registerLintRuleUnlocked(rawFileWriteRule());
    registerLintRuleUnlocked(hotPathAllocRule());
    registerLintRuleUnlocked(sharedStaticStateRule());
}

} // namespace detail
} // namespace skybyte
