/**
 * @file
 * Test helpers for the checked-in reference data under tests/data/.
 * Paths anchor on this header's own location, so the tests find their
 * references from any working directory and any build directory.
 */

#ifndef SKYBYTE_TESTS_SWEEP_REFERENCE_H
#define SKYBYTE_TESTS_SWEEP_REFERENCE_H

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>

#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/sweep.h"

namespace skybyte {

/** Absolute path of @p rel inside the source tree's tests/data/. */
inline std::string
testDataPath(const std::string &rel)
{
    const std::string here(__FILE__);
    return here.substr(0, here.rfind('/')) + "/data/" + rel;
}

/**
 * Run registered sweep @p sweep at @p instr_per_thread instructions per
 * thread (0: the sweep's default) through the serialization path
 * `skybyte_sweep --run` uses, and expect the report to equal
 * tests/data/<sweep>.reference.json byte for byte. Regenerate with
 *   [SKYBYTE_BENCH_INSTR=<n>] ./build/skybyte_sweep --run <sweep> \
 *     -o tests/data/<sweep>.reference.json
 */
inline void
expectSweepMatchesReference(const std::string &sweep,
                            std::uint64_t instr_per_thread = 0)
{
    const std::string ref_path =
        testDataPath(sweep + ".reference.json");
    std::ifstream in(ref_path);
    ASSERT_TRUE(in.good()) << ref_path;
    const std::string reference((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());

    const SweepSpec *spec = findSweep(sweep);
    ASSERT_NE(spec, nullptr) << sweep;
    // Fixed options, not optionsFromEnv(): ambient SKYBYTE_BENCH_*
    // variables must not make the reference comparison fail.
    ExperimentOptions opt;
    opt.instrPerThread = instr_per_thread != 0
                             ? instr_per_thread
                             : spec->defaultInstrPerThread;
    const SweepExecution exec = runSweepShard(*spec, opt);

    SweepReport report;
    report.sweep = spec->name;
    report.totalPoints = exec.totalPoints;
    for (std::size_t i = 0; i < exec.points.size(); ++i) {
        const LabeledPoint &lp = exec.points[i];
        report.entries.push_back(
            {lp.index,
             sweepEntryJson(lp.index, lp.id(), exec.results[i])});
    }
    EXPECT_EQ(toJson(report), reference)
        << sweep << " sweep drifted from " << ref_path
        << " — if the change is intentional, regenerate the reference";
}

} // namespace skybyte

#endif // SKYBYTE_TESTS_SWEEP_REFERENCE_H
