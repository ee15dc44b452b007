/**
 * @file
 * End-to-end tests for the hardened, process-isolated sweep executor
 * (sim/run_executor.h), driven entirely by the deterministic
 * SKYBYTE_FAULT injection hook so no test depends on real crashes or
 * flaky timing:
 *
 *  - a fault-free isolated run is byte-identical to the in-process
 *    runner's report;
 *  - injected crash and hang points complete via retries;
 *  - a permanently failing point degrades to a partial report whose
 *    failure manifest names it;
 *  - resume re-runs only incomplete points (including a point whose
 *    committed result was deleted) and reproduces the clean report
 *    byte-for-byte;
 *  - the journal tolerates a torn trailing record and rejects
 *    mismatched resumes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fs.h"
#include "sim/report.h"
#include "sim/run_executor.h"
#include "sim/sweep.h"

namespace skybyte {
namespace {

/** Tiny run scale: the smoke grid stays < 100 ms per point. */
ExperimentOptions
tinyOptions()
{
    ExperimentOptions opt;
    opt.instrPerThread = 500;
    return opt;
}

/** Fresh temp run dir, removed on destruction. */
struct TempDir
{
    TempDir()
    {
        std::string tmpl =
            (std::filesystem::temp_directory_path() / "skybyte_exec_XXXXXX")
                .string();
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (::mkdtemp(buf.data()) == nullptr)
            throw std::runtime_error("mkdtemp failed");
        path = buf.data();
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string path;
};

/** Scoped SKYBYTE_FAULT environment. */
struct ScopedEnv
{
    ScopedEnv(const char *name, const std::string &value) : name_(name)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }
    const char *name_;
};

const SweepSpec &
smokeSpec()
{
    const SweepSpec *spec = findSweep("smoke");
    if (spec == nullptr)
        throw std::runtime_error("smoke sweep not registered");
    return *spec;
}

std::vector<LabeledPoint>
smokePoints(std::size_t &total)
{
    return expandShard(smokeSpec(), tinyOptions(), {0, 1}, total);
}

ExecutorOptions
fastOptions(const std::string &runDir)
{
    ExecutorOptions opt;
    opt.runDir = runDir;
    opt.backoffBaseMs = 2; // keep retry tests quick and deterministic
    return opt;
}

/** The in-process runner's report, the byte-identity reference. */
SweepReport
inProcessReport()
{
    const SweepExecution exec =
        runSweepShard(smokeSpec(), tinyOptions(), {0, 1}, 2);
    SweepReport report;
    report.sweep = "smoke";
    report.totalPoints = exec.totalPoints;
    for (std::size_t i = 0; i < exec.points.size(); ++i) {
        const LabeledPoint &lp = exec.points[i];
        report.entries.push_back(
            {lp.index,
             sweepEntryJson(lp.index, lp.id(), exec.results[i])});
    }
    return report;
}

SweepReport
isolatedReport(const IsolatedExecution &exec, std::size_t total)
{
    return buildIsolatedReport("smoke", total, {0, 1}, exec);
}

TEST(FaultSpec, ParsesActionsAndAttemptBounds)
{
    const std::vector<FaultSpec> faults = parseFaultSpecs(
        "ycsb/Base-CSSD:crash@1 srad/Base-CSSD:hang "
        "mix:a=zipf;b=scan/SkyByte-Full:exit=7@2");
    ASSERT_EQ(faults.size(), 3u);
    EXPECT_EQ(faults[0].pointId, "ycsb/Base-CSSD");
    EXPECT_EQ(faults[0].action, FaultSpec::Action::Crash);
    EXPECT_EQ(faults[0].maxAttempt, 1u);
    EXPECT_EQ(faults[1].action, FaultSpec::Action::Hang);
    EXPECT_EQ(faults[1].maxAttempt, 0u);
    // Point ids may contain ':' and ';' (mix specs); only the LAST
    // colon separates the action.
    EXPECT_EQ(faults[2].pointId, "mix:a=zipf;b=scan/SkyByte-Full");
    EXPECT_EQ(faults[2].action, FaultSpec::Action::Exit);
    EXPECT_EQ(faults[2].exitCode, 7);
    EXPECT_EQ(faults[2].maxAttempt, 2u);

    EXPECT_THROW(parseFaultSpecs("noaction"), std::invalid_argument);
    EXPECT_THROW(parseFaultSpecs("id:explode"), std::invalid_argument);
    EXPECT_THROW(parseFaultSpecs("id:exit=999"), std::invalid_argument);
    EXPECT_THROW(parseFaultSpecs("id:crash@0"), std::invalid_argument);
    EXPECT_THROW(parseFaultSpecs("id:crash@x"), std::invalid_argument);
}

TEST(Backoff, DeterministicSeededExponentialWithJitter)
{
    // Same inputs, same delay — retries are reproducible.
    EXPECT_EQ(backoffDelayMs(100, 1, 42, 3),
              backoffDelayMs(100, 1, 42, 3));
    // Different point/attempt decorrelate through the jitter stream.
    EXPECT_NE(backoffDelayMs(100, 1, 42, 3),
              backoffDelayMs(100, 2, 42, 3));
    // Exponential envelope: delay k lives in [base<<(k-1), base<<k).
    for (std::uint32_t k = 1; k <= 8; ++k) {
        const std::uint64_t d = backoffDelayMs(100, k, 7, 0);
        const std::uint64_t lo = 100ull << std::min(k - 1, 6u);
        EXPECT_GE(d, lo);
        EXPECT_LT(d, lo + 100);
    }
    // base 0 disables the backoff entirely.
    EXPECT_EQ(backoffDelayMs(0, 3, 42, 3), 0u);
}

TEST(RunExecutor, FaultFreeRunIsByteIdenticalToInProcess)
{
    TempDir dir;
    std::size_t total = 0;
    const std::vector<LabeledPoint> points = smokePoints(total);
    const IsolatedExecution exec = runSweepIsolated(
        "smoke", total, {0, 1}, points, fastOptions(dir.path));
    ASSERT_TRUE(exec.complete());
    for (const PointOutcome &o : exec.outcomes) {
        EXPECT_EQ(o.attempts, 1u);
        EXPECT_FALSE(o.resumedFromDisk);
    }
    EXPECT_EQ(toJson(isolatedReport(exec, total)),
              toJson(inProcessReport()));

    // The journal recorded one ok attempt per point.
    JournalHeader header;
    std::vector<JournalRecord> records;
    ASSERT_TRUE(readJournal(journalPath(dir.path), header, records));
    EXPECT_EQ(header.sweep, "smoke");
    EXPECT_EQ(header.totalPoints, total);
    ASSERT_EQ(records.size(), points.size());
    for (const JournalRecord &rec : records)
        EXPECT_EQ(rec.status, "ok");
}

TEST(RunExecutor, CrashAndHangPointsCompleteViaRetries)
{
    TempDir dir;
    // Point 0 crashes on its first attempt, point 2 hangs on its
    // first attempt; both succeed on retry. Deterministic: the fault
    // fires iff attempt <= @bound.
    ScopedEnv fault("SKYBYTE_FAULT",
                    "ycsb/Base-CSSD:crash@1 srad/Base-CSSD:hang@1");
    std::size_t total = 0;
    const std::vector<LabeledPoint> points = smokePoints(total);
    ExecutorOptions opt = fastOptions(dir.path);
    opt.retries = 2;
    opt.timeoutMs = 1500; // reaps the hanging child
    const IsolatedExecution exec =
        runSweepIsolated("smoke", total, {0, 1}, points, opt);
    ASSERT_TRUE(exec.complete());
    EXPECT_EQ(exec.outcomes[0].attempts, 2u);
    EXPECT_EQ(exec.outcomes[2].attempts, 2u);
    EXPECT_EQ(exec.outcomes[1].attempts, 1u);

    // Recovered results are byte-identical to a clean run.
    EXPECT_EQ(toJson(isolatedReport(exec, total)),
              toJson(inProcessReport()));

    // The journal names the failure kinds.
    JournalHeader header;
    std::vector<JournalRecord> records;
    ASSERT_TRUE(readJournal(journalPath(dir.path), header, records));
    bool saw_crash = false, saw_timeout = false;
    for (const JournalRecord &rec : records) {
        if (rec.index == 0 && rec.attempt == 1) {
            EXPECT_EQ(rec.status, "failed");
            EXPECT_NE(rec.detail.find("signal"), std::string::npos);
            saw_crash = true;
        }
        if (rec.index == 2 && rec.attempt == 1) {
            EXPECT_EQ(rec.status, "timeout");
            saw_timeout = true;
        }
    }
    EXPECT_TRUE(saw_crash);
    EXPECT_TRUE(saw_timeout);
}

TEST(RunExecutor, PermanentFailureDegradesToPartialManifest)
{
    TempDir dir;
    ScopedEnv fault("SKYBYTE_FAULT", "srad/SkyByte-Full:exit=7");
    std::size_t total = 0;
    const std::vector<LabeledPoint> points = smokePoints(total);
    ExecutorOptions opt = fastOptions(dir.path);
    opt.retries = 1;
    const IsolatedExecution exec =
        runSweepIsolated("smoke", total, {0, 1}, points, opt);
    EXPECT_FALSE(exec.complete());
    EXPECT_EQ(exec.countWith(PointStatus::Ok), 3u);
    EXPECT_EQ(exec.countWith(PointStatus::Failed), 1u);
    EXPECT_EQ(exec.outcomes[3].attempts, 2u);
    EXPECT_EQ(exec.outcomes[3].detail, "exit 7");

    // The partial report's manifest names the failing point, and the
    // manifest round-trips through serialize/parse.
    const SweepReport report = isolatedReport(exec, total);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].id, "srad/SkyByte-Full");
    EXPECT_EQ(report.failures[0].status, "failed");
    EXPECT_EQ(report.failures[0].attempts, 2u);
    const SweepReport parsed = parseSweepReport(toJson(report));
    ASSERT_EQ(parsed.failures.size(), 1u);
    EXPECT_EQ(parsed.failures[0].id, report.failures[0].id);
    EXPECT_EQ(parsed.failures[0].status, report.failures[0].status);
    EXPECT_EQ(parsed.failures[0].attempts,
              report.failures[0].attempts);
    EXPECT_EQ(parsed.failures[0].detail, report.failures[0].detail);
    EXPECT_EQ(toJson(parsed), toJson(report));
}

TEST(RunExecutor, CleanExitWithoutResultIsAFailure)
{
    TempDir dir;
    // exit=0 exits "successfully" without committing a result — the
    // executor must not trust the exit code alone.
    ScopedEnv fault("SKYBYTE_FAULT", "ycsb/SkyByte-Full:exit=0");
    std::size_t total = 0;
    const std::vector<LabeledPoint> points = smokePoints(total);
    const IsolatedExecution exec = runSweepIsolated(
        "smoke", total, {0, 1}, points, fastOptions(dir.path));
    EXPECT_EQ(exec.outcomes[1].status, PointStatus::Failed);
    EXPECT_NE(exec.outcomes[1].detail.find("without a committed"),
              std::string::npos);
}

TEST(RunExecutor, ResumeRerunsOnlyIncompletePoints)
{
    TempDir dir;
    std::size_t total = 0;
    const std::vector<LabeledPoint> points = smokePoints(total);
    {
        // First driver run: one point fails permanently (the stand-in
        // for a SIGKILLed driver leaving incomplete state behind).
        ScopedEnv fault("SKYBYTE_FAULT", "srad/Base-CSSD:exit=3");
        ExecutorOptions opt = fastOptions(dir.path);
        opt.retries = 1;
        const IsolatedExecution first =
            runSweepIsolated("smoke", total, {0, 1}, points, opt);
        EXPECT_EQ(first.countWith(PointStatus::Ok), 3u);
    }
    // Second driver invocation (fault cleared): resumes the journal,
    // adopts the three committed results and re-runs only point 2.
    ExecutorOptions opt = fastOptions(dir.path);
    opt.resume = true;
    const IsolatedExecution second =
        runSweepIsolated("smoke", total, {0, 1}, points, opt);
    ASSERT_TRUE(second.complete());
    EXPECT_TRUE(second.outcomes[0].resumedFromDisk);
    EXPECT_TRUE(second.outcomes[1].resumedFromDisk);
    EXPECT_FALSE(second.outcomes[2].resumedFromDisk);
    EXPECT_TRUE(second.outcomes[3].resumedFromDisk);
    // Attempt numbering continues across invocations: 2 failed
    // attempts in run one, success on the third.
    EXPECT_EQ(second.outcomes[2].attempts, 3u);

    // The resumed report is byte-identical to a never-failed run.
    EXPECT_EQ(toJson(isolatedReport(second, total)),
              toJson(inProcessReport()));
}

TEST(RunExecutor, ResumeRerunsPointWithMissingResultFile)
{
    TempDir dir;
    std::size_t total = 0;
    const std::vector<LabeledPoint> points = smokePoints(total);
    const IsolatedExecution first = runSweepIsolated(
        "smoke", total, {0, 1}, points, fastOptions(dir.path));
    ASSERT_TRUE(first.complete());
    // Lose one committed result (torn disk, manual cleanup, ...).
    std::filesystem::remove(pointResultPath(dir.path, 1));

    ExecutorOptions opt = fastOptions(dir.path);
    opt.resume = true;
    const IsolatedExecution second =
        runSweepIsolated("smoke", total, {0, 1}, points, opt);
    ASSERT_TRUE(second.complete());
    EXPECT_FALSE(second.outcomes[1].resumedFromDisk);
    EXPECT_TRUE(second.outcomes[0].resumedFromDisk);
    EXPECT_EQ(toJson(isolatedReport(second, total)),
              toJson(inProcessReport()));
}

TEST(RunExecutor, JournalToleratesTornTrailingRecord)
{
    TempDir dir;
    std::size_t total = 0;
    const std::vector<LabeledPoint> points = smokePoints(total);
    const IsolatedExecution first = runSweepIsolated(
        "smoke", total, {0, 1}, points, fastOptions(dir.path));
    ASSERT_TRUE(first.complete());

    // Tear the final journal record mid-line, as a driver killed
    // inside the append would.
    const std::string path = journalPath(dir.path);
    std::string text = readFileText(path);
    ASSERT_FALSE(text.empty());
    text.resize(text.size() - 25);
    std::ofstream(path, std::ios::trunc | std::ios::binary) << text;

    JournalHeader header;
    std::vector<JournalRecord> records;
    ASSERT_TRUE(readJournal(path, header, records));
    EXPECT_EQ(records.size(), points.size() - 1);

    // And resume still completes the run: the torn record's point has
    // its committed result, so nothing even re-runs.
    ExecutorOptions opt = fastOptions(dir.path);
    opt.resume = true;
    const IsolatedExecution second =
        runSweepIsolated("smoke", total, {0, 1}, points, opt);
    ASSERT_TRUE(second.complete());
    EXPECT_EQ(toJson(isolatedReport(second, total)),
              toJson(inProcessReport()));
}

TEST(RunExecutor, QuotesAndBackslashesInPointIdsSurviveTheJournal)
{
    TempDir dir;
    std::size_t total = 0;
    std::vector<LabeledPoint> points = smokePoints(total);
    // Row labels are free text (a replay spec names a file path).
    points[0].labels[0] = "q\"x\\y";
    const std::string id = points[0].id();
    const IsolatedExecution exec = runSweepIsolated(
        "smoke", total, {0, 1}, points, fastOptions(dir.path));
    ASSERT_TRUE(exec.complete());

    JournalHeader header;
    std::vector<JournalRecord> records;
    ASSERT_TRUE(readJournal(journalPath(dir.path), header, records));
    ASSERT_EQ(records.size(), points.size());
    bool saw_point = false;
    for (const JournalRecord &rec : records) {
        if (rec.index == 0) {
            EXPECT_EQ(rec.id, id);
            EXPECT_EQ(rec.status, "ok");
            saw_point = true;
        }
    }
    EXPECT_TRUE(saw_point);

    // The isolated report carries the same id and still parses.
    const std::string text = toJson(isolatedReport(exec, total));
    EXPECT_EQ(toJson(parseSweepReport(text)), text);
}

TEST(RunExecutor, RunDirStateErrors)
{
    TempDir dir;
    std::size_t total = 0;
    const std::vector<LabeledPoint> points = smokePoints(total);

    // Resume without a journal is a state error...
    ExecutorOptions opt = fastOptions(dir.path);
    opt.resume = true;
    EXPECT_THROW(
        runSweepIsolated("smoke", total, {0, 1}, points, opt),
        RunDirError);

    // ...a fresh run refuses to clobber an existing journal...
    const IsolatedExecution first = runSweepIsolated(
        "smoke", total, {0, 1}, points, fastOptions(dir.path));
    ASSERT_TRUE(first.complete());
    EXPECT_THROW(runSweepIsolated("smoke", total, {0, 1}, points,
                                  fastOptions(dir.path)),
                 RunDirError);

    // ...and a resume must match the journal's sweep manifest.
    EXPECT_THROW(
        runSweepIsolated("fig09", total, {0, 1}, points, opt),
        RunDirError);
    EXPECT_THROW(
        runSweepIsolated("smoke", total + 1, {0, 1}, points, opt),
        RunDirError);

    // Corruption before the final line is rejected, not skipped.
    const std::string path = journalPath(dir.path);
    std::string text = readFileText(path);
    const auto first_nl = text.find('\n');
    ASSERT_NE(first_nl, std::string::npos);
    text.insert(first_nl + 1, "{\"point\": garbage\n");
    std::ofstream(path, std::ios::trunc | std::ios::binary) << text;
    JournalHeader header;
    std::vector<JournalRecord> records;
    EXPECT_THROW(readJournal(path, header, records), RunDirError);
}

} // namespace
} // namespace skybyte
