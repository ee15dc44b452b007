#include "sim/report.h"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/fs.h"
#include "sim/benchdiff.h"

namespace skybyte {

namespace {

void
appendKv(std::ostringstream &os, const char *key, double value,
         bool comma = true)
{
    os << "  \"" << key << "\": " << value;
    if (comma)
        os << ",";
    os << "\n";
}

void
appendKv(std::ostringstream &os, const char *key, std::uint64_t value,
         bool comma = true)
{
    os << "  \"" << key << "\": " << value;
    if (comma)
        os << ",";
    os << "\n";
}

void
appendCdf(std::ostringstream &os, const char *key,
          const std::vector<std::pair<double, double>> &points,
          bool comma = true)
{
    os << "  \"" << key << "\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (i > 0)
            os << ", ";
        os << "[" << points[i].first << ", " << points[i].second << "]";
    }
    os << "]";
    if (comma)
        os << ",";
    os << "\n";
}

} // namespace

void
printSummary(const SimResult &res, std::ostream &out)
{
    out << "=== " << res.variant << " / " << res.workload << " ===\n"
        << "exec_time_ms        " << res.execMs() << "\n"
        << "instructions        " << res.committedInstructions << "\n"
        << "ipc                 " << res.ipc() << "\n"
        << "context_switches    " << res.contextSwitches << "\n"
        << "llc_mpki            " << res.llcMpki() << "\n"
        << "host_reads/writes   " << res.hostReads << " / "
        << res.hostWrites << "\n"
        << "ssd_read_hit/miss   " << res.ssdReadHits << " / "
        << res.ssdReadMisses << "\n"
        << "ssd_writes          " << res.ssdWrites << "\n"
        << "flash_programs      " << res.flashHostPrograms << " (+"
        << res.flashGcPrograms << " gc)\n"
        << "compactions         " << res.compactions << "\n"
        << "gc_runs             " << res.gcRuns << "\n"
        << "promotions          " << res.promotions << "\n"
        << "amat_ns             "
        << ticksToNs(static_cast<Tick>(res.amatTotalTicks)) << "\n"
        << "cxl_bandwidth_gbps  " << res.cxlBandwidthGbps() << "\n";
    for (const TenantResult &t : res.tenants) {
        out << "tenant " << t.name << " (" << t.spec << ", "
            << t.threads << " threads): ipc " << t.ipc()
            << ", host r/w " << t.hostReads << "/" << t.hostWrites
            << ", ssd hit/miss/w " << t.ssdReadHits << "/"
            << t.ssdReadMisses << "/" << t.ssdWrites
            << ", log appends " << t.logAppends
            << ", flash read us " << t.flashReadLatencyUs
            << ", offchip p50/p95/p99 ns "
            << ticksToNs(t.offchipLatency.percentileTicks(0.50)) << "/"
            << ticksToNs(t.offchipLatency.percentileTicks(0.95)) << "/"
            << ticksToNs(t.offchipLatency.percentileTicks(0.99))
            << ", qos delayed r/w " << t.qosDelayedReads << "/"
            << t.qosDelayedWrites << "\n";
    }
    if (!res.tenants.empty())
        out << "fairness_ipc        " << res.fairnessIpc() << "\n";
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::string
toJson(const SimResult &res)
{
    std::ostringstream os;
    os << std::setprecision(12);
    os << "{\n";
    os << "  \"variant\": \"" << jsonEscape(res.variant) << "\",\n";
    os << "  \"workload\": \"" << jsonEscape(res.workload) << "\",\n";
    os << "  \"timed_out\": " << (res.timedOut ? "true" : "false")
       << ",\n";
    appendKv(os, "exec_time_ticks", res.execTime);
    appendKv(os, "exec_time_ms", res.execMs());
    appendKv(os, "committed_instructions", res.committedInstructions);
    appendKv(os, "ipc", res.ipc());
    appendKv(os, "compute_ticks", res.computeTicks);
    appendKv(os, "mem_stall_ticks", res.memStallTicks);
    appendKv(os, "ctx_switch_ticks", res.ctxSwitchTicks);
    appendKv(os, "idle_ticks", res.idleTicks);
    appendKv(os, "context_switches", res.contextSwitches);
    appendKv(os, "host_reads", res.hostReads);
    appendKv(os, "host_writes", res.hostWrites);
    appendKv(os, "ssd_read_hits", res.ssdReadHits);
    appendKv(os, "ssd_read_misses", res.ssdReadMisses);
    appendKv(os, "ssd_writes", res.ssdWrites);
    appendKv(os, "amat_host_ticks", res.amatHostTicks);
    appendKv(os, "amat_protocol_ticks", res.amatProtocolTicks);
    appendKv(os, "amat_indexing_ticks", res.amatIndexingTicks);
    appendKv(os, "amat_ssd_dram_ticks", res.amatSsdDramTicks);
    appendKv(os, "amat_flash_ticks", res.amatFlashTicks);
    appendKv(os, "amat_total_ticks", res.amatTotalTicks);
    appendKv(os, "flash_host_programs", res.flashHostPrograms);
    appendKv(os, "flash_gc_programs", res.flashGcPrograms);
    appendKv(os, "flash_reads", res.flashReads);
    appendKv(os, "gc_runs", res.gcRuns);
    appendKv(os, "compactions", res.compactions);
    appendKv(os, "flash_read_latency_us", res.flashReadLatencyUs);
    appendKv(os, "write_amplification", res.writeAmplification);
    appendKv(os, "wear_spread",
             static_cast<std::uint64_t>(res.wearSpread));
    appendKv(os, "log_appends", res.logAppends);
    appendKv(os, "log_update_hits", res.logUpdateHits);
    appendKv(os, "log_overflow_appends", res.logOverflowAppends);
    appendKv(os, "log_index_bytes_peak", res.logIndexBytesPeak);
    appendKv(os, "promotions", res.promotions);
    appendKv(os, "demotions", res.demotions);
    appendKv(os, "astri_host_hits", res.astriHostHits);
    appendKv(os, "astri_host_misses", res.astriHostMisses);
    appendKv(os, "cxl_bytes", res.cxlBytes);
    appendKv(os, "llc_misses", res.llcMisses);
    appendKv(os, "llc_accesses", res.llcAccesses);
    appendKv(os, "llc_mpki", res.llcMpki());
    appendCdf(os, "offchip_latency_cdf_ns",
              res.offchipLatency.cdfPoints());
    appendCdf(os, "read_locality_cdf", res.readLocality.cdfPoints());
    // Per-tenant buckets exist only for >=2-tenant mix runs, so
    // single-workload reports keep their exact byte layout (the
    // checked-in reference reports and fingerprint pins rely on it).
    appendCdf(os, "write_locality_cdf", res.writeLocality.cdfPoints(),
              !res.tenants.empty());
    if (!res.tenants.empty()) {
        os << "  \"tenants\": [";
        for (std::size_t i = 0; i < res.tenants.size(); ++i) {
            const TenantResult &t = res.tenants[i];
            os << (i == 0 ? "\n" : ",\n");
            os << "    {\"name\": \"" << jsonEscape(t.name)
               << "\", \"spec\": \"" << jsonEscape(t.spec)
               << "\", \"threads\": " << t.threads
               << ", \"instructions\": " << t.instructions
               << ", \"exec_time_ticks\": " << t.execTime
               << ", \"ipc\": " << t.ipc()
               << ", \"host_reads\": " << t.hostReads
               << ", \"host_writes\": " << t.hostWrites
               << ", \"ssd_read_hits\": " << t.ssdReadHits
               << ", \"ssd_read_misses\": " << t.ssdReadMisses
               << ", \"ssd_writes\": " << t.ssdWrites
               << ", \"log_appends\": " << t.logAppends
               << ", \"flash_page_reads\": " << t.flashPageReads
               << ", \"flash_read_latency_us\": "
               << t.flashReadLatencyUs
               << ", \"qos_weight\": " << t.qosWeight
               << ", \"offchip_p50_ns\": "
               << ticksToNs(t.offchipLatency.percentileTicks(0.50))
               << ", \"offchip_p95_ns\": "
               << ticksToNs(t.offchipLatency.percentileTicks(0.95))
               << ", \"offchip_p99_ns\": "
               << ticksToNs(t.offchipLatency.percentileTicks(0.99))
               << ", \"qos_delayed_reads\": " << t.qosDelayedReads
               << ", \"qos_delayed_writes\": " << t.qosDelayedWrites
               << ", \"qos_throttle_delay_us\": "
               << t.qosThrottleDelayUs
               << ", \"qos_log_over_quota\": " << t.qosLogOverQuota
               << ", \"offchip_latency_cdf_ns\": [";
            const auto points = t.offchipLatency.cdfPoints();
            for (std::size_t p = 0; p < points.size(); ++p) {
                if (p > 0)
                    os << ", ";
                os << "[" << points[p].first << ", "
                   << points[p].second << "]";
            }
            os << "]}";
        }
        os << "\n  ],\n";
        // SLO/fairness rollups exist only for mix runs, like the tenant
        // array itself, so single-workload reports stay byte-identical.
        appendKv(os, "qos_migration_share_rejects",
                 res.qosMigrationShareRejects);
        appendKv(os, "fairness_ipc", res.fairnessIpc(), false);
    }
    os << "}\n";
    return os.str();
}

void
writeJsonFile(const SimResult &res, const std::string &path)
{
    writeFileAtomic(path, toJson(res));
}

namespace {

/** Minimal scanner over the report format this file writes. */
class JsonScanner
{
  public:
    explicit JsonScanner(const std::string &text) : text_(text) {}

    /** Position the cursor after the first occurrence of @p token. */
    void
    expect(const std::string &token)
    {
        const auto at = text_.find(token, pos_);
        if (at == std::string::npos)
            throw std::runtime_error("sweep report: missing " + token);
        pos_ = at + token.size();
    }

    bool
    lookingAt(char c)
    {
        skipSpace();
        return pos_ < text_.size() && text_[pos_] == c;
    }

    void
    consume(char c)
    {
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != c) {
            throw std::runtime_error(
                std::string("sweep report: expected '") + c + "'");
        }
        pos_++;
    }

    std::string
    stringValue()
    {
        consume('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\' && pos_ + 1 < text_.size())
                pos_++; // undo jsonEscape
            out += text_[pos_++];
        }
        consume('"');
        return out;
    }

    std::uint64_t
    numberValue()
    {
        skipSpace();
        std::size_t used = 0;
        std::uint64_t v = 0;
        try {
            v = std::stoull(text_.substr(pos_, 20), &used, 10);
        } catch (const std::exception &) {
            throw std::runtime_error("sweep report: expected number");
        }
        pos_ += used;
        return v;
    }

    /**
     * The cursor sits at the '{' of an object: return its full text
     * (string-aware brace matching) and advance past it.
     */
    std::string
    objectText()
    {
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != '{')
            throw std::runtime_error("sweep report: expected object");
        const std::size_t begin = pos_;
        int depth = 0;
        bool in_string = false;
        for (; pos_ < text_.size(); ++pos_) {
            const char c = text_[pos_];
            if (in_string) {
                if (c == '\\')
                    pos_++;
                else if (c == '"')
                    in_string = false;
            } else if (c == '"') {
                in_string = true;
            } else if (c == '{') {
                depth++;
            } else if (c == '}') {
                if (--depth == 0) {
                    pos_++;
                    return text_.substr(begin, pos_ - begin);
                }
            }
        }
        throw std::runtime_error("sweep report: unterminated object");
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size()
               && (text_[pos_] == ' ' || text_[pos_] == '\n'
                   || text_[pos_] == '\r' || text_[pos_] == '\t')) {
            pos_++;
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

std::string
sweepEntryJsonFromText(std::size_t index, const std::string &id,
                       const std::string &resultJson)
{
    std::string result_json = resultJson;
    // toJson ends with "}\n"; embed without the trailing newline.
    if (!result_json.empty() && result_json.back() == '\n')
        result_json.pop_back();
    std::ostringstream os;
    os << "{\n"
       << "\"index\": " << index << ",\n"
       << "\"id\": \"" << jsonEscape(id) << "\",\n"
       << "\"result\": " << result_json << "\n"
       << "}";
    return os.str();
}

std::string
sweepEntryJson(std::size_t index, const std::string &id,
               const SimResult &res)
{
    return sweepEntryJsonFromText(index, id, toJson(res));
}

std::string
toJson(const SweepReport &report)
{
    std::ostringstream os;
    os << "{\n"
       << "\"skybyte_sweep_report\": 1,\n"
       << "\"sweep\": \"" << jsonEscape(report.sweep) << "\",\n"
       << "\"total_points\": " << report.totalPoints << ",\n"
       << "\"shard_index\": " << report.shardIndex << ",\n"
       << "\"shard_count\": " << report.shardCount << ",\n"
       << "\"points\": [";
    for (std::size_t i = 0; i < report.entries.size(); ++i) {
        os << (i == 0 ? "\n" : ",\n") << report.entries[i].text;
    }
    os << "\n]";
    // An empty manifest is omitted entirely: complete reports keep the
    // pre-manifest byte layout (merge identity, pinned references).
    if (!report.failures.empty()) {
        os << ",\n\"failures\": [";
        for (std::size_t i = 0; i < report.failures.size(); ++i) {
            const SweepPointFailure &f = report.failures[i];
            os << (i == 0 ? "\n" : ",\n") << "{\"index\": " << f.index
               << ", \"id\": \"" << jsonEscape(f.id) << "\", \"status\": \""
               << jsonEscape(f.status) << "\", \"attempts\": " << f.attempts
               << ", \"detail\": \"" << jsonEscape(f.detail) << "\"}";
        }
        os << "\n]";
    }
    os << "\n}\n";
    return os.str();
}

SweepReport
parseSweepReport(const std::string &text)
{
    SweepReport report;
    JsonScanner scan(text);
    scan.expect("\"skybyte_sweep_report\":");
    if (scan.numberValue() != 1)
        throw std::runtime_error("sweep report: unknown format version");
    scan.expect("\"sweep\":");
    report.sweep = scan.stringValue();
    scan.expect("\"total_points\":");
    report.totalPoints = scan.numberValue();
    scan.expect("\"shard_index\":");
    report.shardIndex = static_cast<std::uint32_t>(scan.numberValue());
    scan.expect("\"shard_count\":");
    report.shardCount = static_cast<std::uint32_t>(scan.numberValue());
    scan.expect("\"points\":");
    scan.consume('[');
    while (!scan.lookingAt(']')) {
        SweepReportEntry entry;
        entry.text = scan.objectText();
        // The index lives at a fixed spot inside the entry text.
        JsonScanner inner(entry.text);
        inner.expect("\"index\":");
        entry.index = inner.numberValue();
        report.entries.push_back(std::move(entry));
        if (scan.lookingAt(','))
            scan.consume(',');
    }
    scan.consume(']');
    // Optional failure manifest (partial runs only).
    if (scan.lookingAt(',')) {
        scan.consume(',');
        scan.expect("\"failures\":");
        scan.consume('[');
        while (!scan.lookingAt(']')) {
            const std::string text = scan.objectText();
            JsonScanner inner(text);
            SweepPointFailure f;
            inner.expect("\"index\":");
            f.index = inner.numberValue();
            inner.expect("\"id\":");
            f.id = inner.stringValue();
            inner.expect("\"status\":");
            f.status = inner.stringValue();
            inner.expect("\"attempts\":");
            f.attempts = static_cast<std::uint32_t>(inner.numberValue());
            inner.expect("\"detail\":");
            f.detail = inner.stringValue();
            report.failures.push_back(std::move(f));
            if (scan.lookingAt(','))
                scan.consume(',');
        }
    }
    return report;
}

std::vector<std::string>
diffSweepReports(const SweepReport &a, const SweepReport &b,
                 const BenchDiffOptions &opt)
{
    if (a.sweep != b.sweep) {
        throw std::runtime_error("diff: different sweeps: " + a.sweep
                                 + " vs " + b.sweep);
    }
    // Two complete reports must line up exactly; only reports carrying
    // a failure manifest get the lenient per-index comparison.
    if (a.totalPoints != b.totalPoints
        || (a.failures.empty() && b.failures.empty()
            && a.entries.size() != b.entries.size())) {
        throw std::runtime_error(
            "diff: point count mismatch in " + a.sweep + ": "
            + std::to_string(a.entries.size()) + "/"
            + std::to_string(a.totalPoints) + " vs "
            + std::to_string(b.entries.size()) + "/"
            + std::to_string(b.totalPoints));
    }
    std::vector<std::string> drifts;

    auto compareEntries = [&](const SweepReportEntry &ea,
                              const SweepReportEntry &eb) {
        std::vector<BenchDrift> found;
        try {
            found = diffBenchJson(ea.text, eb.text, opt);
        } catch (const std::runtime_error &e) {
            throw std::runtime_error("diff: point "
                                     + std::to_string(ea.index)
                                     + " differs structurally: "
                                     + e.what());
        }
        for (const BenchDrift &d : found) {
            std::ostringstream os;
            os << std::setprecision(12);
            os << a.sweep << "[" << ea.index << "] " << d.path << ": "
               << d.baseline << " vs " << d.current << " ("
               << std::setprecision(3) << d.relPct << "% > " << opt.tolPct
               << "%)";
            drifts.push_back(os.str());
        }
    };

    std::map<std::size_t, const SweepReportEntry *> ea, eb;
    std::map<std::size_t, const SweepPointFailure *> fa, fb;
    for (const SweepReportEntry &e : a.entries)
        ea[e.index] = &e;
    for (const SweepReportEntry &e : b.entries)
        eb[e.index] = &e;
    for (const SweepPointFailure &f : a.failures)
        fa[f.index] = &f;
    for (const SweepPointFailure &f : b.failures)
        fb[f.index] = &f;

    auto disposition =
        [](const std::map<std::size_t, const SweepPointFailure *> &fails,
           std::size_t index) -> std::string {
        const auto it = fails.find(index);
        return it == fails.end() ? "absent" : it->second->status;
    };

    for (std::size_t index = 0; index < a.totalPoints; ++index) {
        const auto ita = ea.find(index);
        const auto itb = eb.find(index);
        if (ita != ea.end() && itb != eb.end()) {
            compareEntries(*ita->second, *itb->second);
            continue;
        }
        const std::string da = ita != ea.end()
                                   ? "ok"
                                   : disposition(fa, index);
        const std::string db = itb != eb.end()
                                   ? "ok"
                                   : disposition(fb, index);
        // Absent on both sides (the same unfinished shard slice) or an
        // agreeing failure is not a drift.
        if (da == db)
            continue;
        const auto itfa = fa.find(index);
        const auto itfb = fb.find(index);
        const std::string id = itfa != fa.end()   ? itfa->second->id
                               : itfb != fb.end() ? itfb->second->id
                                                  : "?";
        drifts.push_back(a.sweep + "[" + std::to_string(index) + "] "
                         + id + ": " + da + " vs " + db);
    }
    return drifts;
}

SweepReport
mergeSweepReports(const std::vector<SweepReport> &shards)
{
    if (shards.empty())
        throw std::runtime_error("merge: no reports given");
    SweepReport merged;
    merged.sweep = shards.front().sweep;
    merged.totalPoints = shards.front().totalPoints;
    for (const SweepReport &shard : shards) {
        if (shard.sweep != merged.sweep) {
            throw std::runtime_error("merge: mixed sweeps: "
                                     + merged.sweep + " vs "
                                     + shard.sweep);
        }
        if (shard.totalPoints != merged.totalPoints) {
            throw std::runtime_error("merge: total_points mismatch in "
                                     + shard.sweep);
        }
        merged.entries.insert(merged.entries.end(),
                              shard.entries.begin(),
                              shard.entries.end());
        merged.failures.insert(merged.failures.end(),
                               shard.failures.begin(),
                               shard.failures.end());
    }
    std::sort(merged.entries.begin(), merged.entries.end(),
              [](const SweepReportEntry &a, const SweepReportEntry &b) {
                  return a.index < b.index;
              });
    std::sort(merged.failures.begin(), merged.failures.end(),
              [](const SweepPointFailure &a, const SweepPointFailure &b) {
                  return a.index < b.index;
              });
    // Every point index must be covered exactly once, but a
    // failure-manifest record covers its index too: shards that
    // degraded to partial results still merge into one (explicitly
    // partial) report, while a genuinely missing slice stays an error.
    std::vector<unsigned char> covered(merged.totalPoints, 0);
    auto cover = [&](std::size_t index) {
        if (index >= merged.totalPoints) {
            throw std::runtime_error(
                "merge: point index " + std::to_string(index)
                + " out of range in " + merged.sweep);
        }
        if (covered[index]++) {
            throw std::runtime_error(
                "merge: duplicate or missing point index "
                + std::to_string(index));
        }
    };
    for (const SweepReportEntry &e : merged.entries)
        cover(e.index);
    for (const SweepPointFailure &f : merged.failures)
        cover(f.index);
    if (merged.entries.size() + merged.failures.size()
        != merged.totalPoints) {
        throw std::runtime_error(
            "merge: " + std::to_string(merged.entries.size())
            + " entries for " + std::to_string(merged.totalPoints)
            + " points (missing or extra shards?)");
    }
    return merged;
}

} // namespace skybyte
