/**
 * @file
 * Shared support for the microbenchmarks: the `--json <path>` flag the
 * baseline-emitting benches (bench_kernel_hotpath, bench_request_path,
 * bench_trace_replay) accept, so the CI artifact plumbing stays in one
 * place. The paper figures and tables are not benches: they print from
 * `skybyte_sweep --run <name>` (sim/sweep.h SweepSpec::table).
 */

#ifndef SKYBYTE_BENCH_SUPPORT_H
#define SKYBYTE_BENCH_SUPPORT_H

#include <string>

namespace skybyte::bench {

/**
 * Strip `--json <path>` from the arg list before it reaches
 * benchmark::Initialize (which rejects unknown flags). Returns the
 * path, or "" when absent.
 */
inline std::string
extractJsonPath(int &argc, char **argv)
{
    std::string json_path;
    int out_argc = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else
            argv[out_argc++] = argv[i];
    }
    argc = out_argc;
    return json_path;
}

} // namespace skybyte::bench

#endif // SKYBYTE_BENCH_SUPPORT_H
