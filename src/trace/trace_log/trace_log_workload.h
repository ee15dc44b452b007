/**
 * @file
 * Streaming replay of STRC captures: a Workload that owns one
 * TraceLogReader and decodes on demand. Each thread holds one decoded
 * block at a time; refill() moves records out of it and, once it is
 * drained, decodes that thread's next block on the calling thread.
 * Peak memory is one block per thread plus the one being decoded,
 * regardless of trace size. A corrupt block throws TraceLogError from
 * the refill that reaches it, so only the thread whose stream it
 * belongs to fails.
 *
 * The record stream per thread is byte-identical to what the live
 * generator yields for the captured workload — the fingerprint test
 * in tests/test_trace_log.cc pins a replayed run's report against the
 * generator's, so a `tracelog:path=...` spec stands in for the spec
 * it captured.
 */

#ifndef SKYBYTE_TRACE_TRACE_LOG_TRACE_LOG_WORKLOAD_H
#define SKYBYTE_TRACE_TRACE_LOG_TRACE_LOG_WORKLOAD_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace_log/trace_log.h"
#include "trace/workload.h"

namespace skybyte {

/** On-demand replay of one STRC capture. */
class TraceLogWorkload : public Workload
{
  public:
    /** @throws TraceLogError / std::runtime_error on a bad capture. */
    explicit TraceLogWorkload(const std::string &path);

    std::string name() const override { return reader_.name(); }
    std::uint64_t footprintBytes() const override
    {
        return reader_.footprintBytes();
    }
    int numThreads() const override { return reader_.numThreads(); }
    /** @throws TraceLogError when @p tid's next block is corrupt. */
    std::uint32_t refill(int tid, TraceBatch &batch) override;
    std::uint64_t instructionsEmitted(int tid) const override
    {
        return threads_[static_cast<std::size_t>(tid)].emitted;
    }

    /** Blocks decoded so far (monotonic). */
    std::uint64_t blocksDecoded() const { return reader_.blocksDecoded(); }

  private:
    struct PerThread
    {
        /** Empty until the first refill and after the stream ends, so
         *  no placeholder block counts on the decoded-block gauge. */
        std::optional<DecodedBlock> block;
        std::size_t pos = 0;       ///< next record within block
        std::uint64_t next = 0;    ///< index of the next block to decode
        std::uint64_t emitted = 0; ///< instructions handed out
    };

    TraceLogReader reader_;
    std::vector<PerThread> threads_;
};

} // namespace skybyte

#endif // SKYBYTE_TRACE_TRACE_LOG_TRACE_LOG_WORKLOAD_H
