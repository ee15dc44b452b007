/**
 * @file
 * Streaming replay of STRC captures: a producer-consumer Workload
 * whose single background thread owns the TraceLogReader, decodes
 * blocks ahead of the simulation, and parks them in bounded
 * per-thread ring buffers. refill() only moves records out of an
 * already decoded block — it never touches the filesystem, so the
 * simulated cores never stall on I/O or decompression, and peak
 * memory is O(threads × ring depth) blocks regardless of trace size.
 *
 * The record stream per thread is byte-identical to what the live
 * generator yields for the captured workload — the fingerprint test
 * in tests/test_trace_log.cc pins a replayed run's report against the
 * generator's, so a `tracelog:path=...` spec stands in for the spec
 * it captured.
 */

#ifndef SKYBYTE_TRACE_TRACE_LOG_TRACE_LOG_WORKLOAD_H
#define SKYBYTE_TRACE_TRACE_LOG_TRACE_LOG_WORKLOAD_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace/trace_log/trace_log.h"
#include "trace/workload.h"

namespace skybyte {

/** Producer-consumer replay of one STRC capture. */
class TraceLogWorkload : public Workload
{
  public:
    /** Decoded blocks buffered per thread before the producer waits. */
    static constexpr std::size_t kRingBlocks = 4;

    /** @throws TraceLogError / std::runtime_error on a bad capture. */
    explicit TraceLogWorkload(const std::string &path);
    ~TraceLogWorkload() override;

    std::string name() const override { return name_; }
    std::uint64_t footprintBytes() const override { return footprint_; }
    int numThreads() const override
    {
        return static_cast<int>(rings_.size());
    }
    std::uint32_t refill(int tid, TraceBatch &batch) override;
    std::uint64_t instructionsEmitted(int tid) const override
    {
        return emitted_[static_cast<std::size_t>(tid)];
    }

    /**
     * The producer hand-off is already mutex-guarded per ring, and
     * cur_/pos_/emitted_ are strictly per-tid, so distinct tids may
     * refill from different host threads.
     */
    bool concurrentRefillSafe() const override { return true; }

    /** Blocks the producer has decoded so far (monotonic). */
    std::uint64_t blocksDecoded() const;

  private:
    struct Ring
    {
        std::deque<DecodedBlock> blocks;
        bool done = false; ///< producer has delivered the last block
    };

    void producerLoop();

    std::string name_;
    std::uint64_t footprint_ = 0;

    mutable std::mutex mu_;
    std::condition_variable producerCv_; ///< space freed / stop
    std::condition_variable consumerCv_; ///< block delivered / done
    std::vector<Ring> rings_;
    std::exception_ptr error_;
    bool stop_ = false;
    std::uint64_t blocksDecoded_ = 0;

    /** @name Consumer-side state (one simulated thread each). @{ */
    std::vector<std::unique_ptr<DecodedBlock>> cur_;
    std::vector<std::size_t> pos_;
    std::vector<std::uint64_t> emitted_;
    /** @} */

    std::unique_ptr<TraceLogReader> reader_; ///< producer-owned
    std::thread producer_;
};

} // namespace skybyte

#endif // SKYBYTE_TRACE_TRACE_LOG_TRACE_LOG_WORKLOAD_H
