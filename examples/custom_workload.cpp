/**
 * @file
 * Scenario: bringing your own application to the simulator.
 *
 * Implements a custom Workload (a pointer-chasing index join with a hot
 * build side and a streamed probe side), captures it to an STRC trace —
 * the analogue of the artifact's PIN capture step — then replays the
 * identical trace under three device configurations via System's
 * bring-your-own-workload constructor.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/experiment.h"
#include "sim/system.h"
#include "trace/trace_log/trace_log.h"
#include "trace/trace_log/trace_log_workload.h"

using namespace skybyte;

namespace {

/** Hash-join-like workload: random build-side probes + streaming scan. */
class IndexJoinWorkload : public Workload
{
  public:
    explicit IndexJoinWorkload(const WorkloadParams &params)
        : params_(params),
          footprint_(params.footprintBytes != 0
                         ? params.footprintBytes
                         : 96ULL * 1024 * 1024)
    {
        rngs_.resize(static_cast<std::size_t>(params.numThreads));
        emitted_.assign(static_cast<std::size_t>(params.numThreads), 0);
        cursor_.assign(static_cast<std::size_t>(params.numThreads), 0);
        for (int t = 0; t < params.numThreads; ++t)
            rngs_[static_cast<std::size_t>(t)].reseed(params.seed + t);
    }

    std::string name() const override { return "index-join"; }
    std::uint64_t footprintBytes() const override { return footprint_; }
    int numThreads() const override { return params_.numThreads; }
    std::uint64_t instructionsEmitted(int tid) const override
    {
        return emitted_[static_cast<std::size_t>(tid)];
    }

    // The batched contract: fill up to TraceBatch::kCapacity records
    // in one call. The record stream must not depend on how many
    // records each refill produces.
    std::uint32_t
    refill(int tid, TraceBatch &batch) override
    {
        auto t = static_cast<std::size_t>(tid);
        Rng &rng = rngs_[t];
        const std::uint64_t hash_region = footprint_ / 8; // build side
        std::uint32_t n = 0;
        while (n < TraceBatch::kCapacity
               && emitted_[t] < params_.instrPerThread) {
            TraceRecord &rec = batch.records[n++];
            switch (cursor_[t] % 4) {
              case 0: // stream the probe side sequentially
                rec = {6, false,
                       kDataBase + hash_region
                           + (cursor_[t] * kCachelineBytes)
                                 % (footprint_ - hash_region)};
                break;
              case 1: // hash-bucket lookup (random, hot)
              case 2: // chase one chain link
                rec = {4, false,
                       kDataBase + lineAlign(rng.below(hash_region))};
                break;
              default: // emit a join result (write, streaming)
                rec = {5, true,
                       kDataBase + hash_region
                           + lineAlign(
                               rng.below(footprint_ - hash_region))};
                break;
            }
            cursor_[t]++;
            emitted_[t] += rec.computeOps + 1;
        }
        batch.count = n;
        batch.cursor = 0;
        return n;
    }

  private:
    WorkloadParams params_;
    std::uint64_t footprint_;
    std::vector<Rng> rngs_;
    std::vector<std::uint64_t> emitted_;
    std::vector<std::uint64_t> cursor_;
};

} // namespace

int
main()
{
    WorkloadParams params;
    params.numThreads = 8;
    params.instrPerThread = 80'000;

    // Step 1: "capture" the custom application once (the PIN step).
    const std::string trace_path = "/tmp/index_join.strc";
    {
        IndexJoinWorkload capture(params);
        const std::uint64_t records =
            writeTraceLog(trace_path, capture);
        std::printf("captured %lu records to %s\n",
                    static_cast<unsigned long>(records),
                    trace_path.c_str());
    }

    // Step 2: replay the identical trace under different devices using
    // the bring-your-own-workload constructor. The warm factory gives
    // the SSD-cache warmup pass its own replay cursor.
    std::printf("\n%-14s %12s %12s %12s %14s\n", "variant", "exec(ms)",
                "ssd-hit", "ssd-miss", "ctx-switches");
    double base_ms = 0;
    for (const std::string variant :
         {"Base-CSSD", "SkyByte-WP", "SkyByte-Full"}) {
        SimConfig cfg = makeBenchConfig(variant);
        System system(cfg,
                      std::make_unique<TraceLogWorkload>(trace_path),
                      [&trace_path] {
                          return std::make_unique<TraceLogWorkload>(
                              trace_path);
                      });
        SimResult res = system.run();
        if (variant == "Base-CSSD")
            base_ms = res.execMs();
        std::printf("%-14s %12.3f %12lu %12lu %14lu\n", variant.c_str(),
                    res.execMs(),
                    static_cast<unsigned long>(res.ssdReadHits),
                    static_cast<unsigned long>(res.ssdReadMisses),
                    static_cast<unsigned long>(res.contextSwitches));
        if (variant == "SkyByte-Full" && base_ms > 0) {
            std::printf("\nverdict: SkyByte-Full runs this join in "
                        "%.0f%% of the naive CXL-SSD time.\n",
                        100.0 * res.execMs() / base_ms);
        }
    }
    return base_ms > 0 ? 0 : 1;
}
