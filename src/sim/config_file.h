/**
 * @file
 * Config-file front end mirroring the original artifact's interface
 * (appendix §E-G): experiments are described by small key=value files —
 * a baseline config, a workload config, and optional setting overrides —
 * using the artifact's knob names:
 *
 *   promotion_enable=1            write_log_enable=1
 *   device_triggered_ctx_swt=1    cs_threshold=2000        (ns)
 *   ssd_cache_size_byte=8388608   ssd_cache_way=16
 *   host_dram_size_byte=33554432  t_policy=FAIRNESS        (RR|RANDOM|FAIRNESS)
 *   write_log_size_byte=1048576   flash_type=ULL           (ULL|ULL2|SLC|MLC)
 *   num_cores=8         (1-1024)  rob_entries=256          (1-4096)
 *   workload=ycsb                 num_threads=24
 *   instr_per_thread=100000       footprint_byte=134217728
 *   seed=42                       dram_only=0
 *
 * workload= accepts any registered workload spec string
 * (trace/workload_spec.h), so parameterized synthetic scenarios work
 * straight from a config file:
 *
 *   workload=zipf:theta=0.99,footprint=64M
 *   workload=phased:phase_instr=20000,write_ratio=0.3
 *
 * Specs are parsed (and their workload name resolved against the
 * registry) at config-parse time, so a typo fails with the offending
 * line number. Lines starting with '#' are comments. Unknown keys
 * raise errors so typos cannot silently change an experiment.
 */

#ifndef SKYBYTE_SIM_CONFIG_FILE_H
#define SKYBYTE_SIM_CONFIG_FILE_H

#include <istream>
#include <string>

#include "common/config.h"
#include "trace/workload.h"

namespace skybyte {

/** A parsed experiment description. */
struct ExperimentSpec
{
    SimConfig config;
    WorkloadParams params;
    WorkloadSpec workload; ///< defaults to the "uniform" microworkload
};

/**
 * Apply key=value lines from @p in onto @p spec.
 * @throws std::invalid_argument on unknown keys or malformed values.
 */
void applyConfigStream(std::istream &in, ExperimentSpec &spec);

/**
 * Parse one config file.
 * @throws std::runtime_error if the file cannot be opened.
 */
void applyConfigFile(const std::string &path, ExperimentSpec &spec);

/** Apply a single "key=value" assignment (CLI -k overrides). */
void applyAssignment(const std::string &assignment, ExperimentSpec &spec);

} // namespace skybyte

#endif // SKYBYTE_SIM_CONFIG_FILE_H
