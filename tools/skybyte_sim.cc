/**
 * @file
 * The command-line simulator, mirroring the original artifact's driver
 * (appendix §E):
 *
 *   skybyte_sim -b baseline.config -w workload.config [-t extra.config]
 *               [-k key=value]... [-c cores] [-f out.json] [-p] [-d] [-r]
 *
 *   -b/-w/-t  config files applied in order (key=value lines)
 *   -k        inline override, e.g. -k cs_threshold=2000 or
 *             -k workload=zipf:theta=0.99,footprint=64M (any
 *             registered workload spec string)
 *   -c        number of simulated cores, 1-1024 (same as -k num_cores=)
 *   -f        write the result as JSON to this file ("-" = stdout)
 *   -p        print detailed runtime information (summary to stdout)
 *   -d        run with effectively infinite host DRAM for promotions
 *   -r        output DRAM-only performance results (ideal baseline)
 *
 * With no arguments it runs a demonstration configuration. With
 * "-f -" the progress line is suppressed and stdout carries only the
 * JSON; file output is committed write-temp-then-rename, so an
 * interrupted run never leaves a truncated JSON file.
 *
 * Exit codes (the CLI contract, also in the README):
 *   0  success
 *   1  usage or runtime error (bad flags, config, workload, I/O)
 *   2  the run hit the in-sim safety tick limit (timedOut), so
 *      scripted sweeps can detect truncated runs
 */

#include <cstdio>
#include <cstring>
#include <iostream>

#include "sim/config_file.h"
#include "sim/report.h"
#include "sim/system.h"

using namespace skybyte;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: skybyte_sim [-b cfg] [-w cfg] [-t cfg] [-k key=value]\n"
        "                   [-c cores] [-f out.json] [-p] [-d] [-r]\n"
        "exit codes: 0 ok; 1 usage/runtime error; 2 in-sim safety tick"
        " limit hit\n");
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentSpec spec;
    spec.config.name = "custom";
    spec.params.numThreads = 8;
    spec.params.instrPerThread = 100'000;

    std::string out_path;
    bool print_details = false;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument("missing value for "
                                                + arg);
                return argv[++i];
            };
            if (arg == "-b" || arg == "-w" || arg == "-t") {
                applyConfigFile(next(), spec);
            } else if (arg == "-k") {
                applyAssignment(next(), spec);
            } else if (arg == "-c") {
                applyAssignment("num_cores=" + next(), spec);
            } else if (arg == "-f") {
                out_path = next();
            } else if (arg == "-p") {
                print_details = true;
            } else if (arg == "-d") {
                spec.config.hostMem.promotedBytesMax = ~0ULL >> 1;
            } else if (arg == "-r") {
                spec.config.dramOnly = true;
                spec.config.preconditionSsd = false;
            } else if (arg == "-h" || arg == "--help") {
                usage();
                return 0;
            } else {
                throw std::invalid_argument("unknown option: " + arg);
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "skybyte_sim: %s\n", e.what());
        usage();
        return 1;
    }

    try {
        System system(spec.config, spec.workload, spec.params);
        SimResult res = system.run();
        const bool json_to_stdout = out_path == "-";
        if (print_details)
            printSummary(res, json_to_stdout ? std::cerr : std::cout);
        else if (!json_to_stdout)
            std::printf("%s/%s: %.3f ms, %lu instructions\n",
                        res.variant.c_str(), res.workload.c_str(),
                        res.execMs(),
                        static_cast<unsigned long>(
                            res.committedInstructions));
        if (json_to_stdout) {
            std::cout << toJson(res);
        } else if (!out_path.empty()) {
            writeJsonFile(res, out_path);
            std::printf("wrote %s\n", out_path.c_str());
        }
        return res.timedOut ? 2 : 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "skybyte_sim: %s\n", e.what());
        return 1;
    }
}
