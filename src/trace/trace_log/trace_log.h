/**
 * @file
 * STRC: the seekable compressed trace-capture format every trace
 * replay reads. A capture is a fixed header, per-thread record
 * streams chunked into independently decodable blocks, and a footer
 * index that maps (thread, record range) to a file offset so reaching
 * any record is O(1):
 *
 *   [header | name][block]...[block][index][trailer]
 *
 * Every block but a thread's last holds exactly blockRecords()
 * records, so the block containing record r of thread t is simply
 * readBlock(t, r / blockRecords()) — no search. Inside a block the
 * three record columns are packed separately (zigzag-varint vaddr
 * deltas, varint computeOps, a packed isWrite bitmap) and the whole
 * payload is SLZ-compressed when that wins, stored raw when it does
 * not; either way a CRC-32 covers the stored bytes. The footer index
 * itself is varint-packed and CRC-protected, and a fixed 32-byte
 * trailer at EOF locates it, so readers never scan the file.
 *
 * TraceLogWriter streams blocks through common/fs AtomicFileWriter
 * (temp + rename), so an interrupted capture never leaves a torn file
 * at the destination path, and buffers only one pending block per
 * thread plus the (tiny) index. TraceLogReader validates header,
 * index and per-block CRCs, decodes one block at a time, and counts
 * live decoded blocks process-wide (liveDecodedBlocks()) so tests can
 * assert replay memory stays O(blocks in flight), not O(trace).
 */

#ifndef SKYBYTE_TRACE_TRACE_LOG_TRACE_LOG_H
#define SKYBYTE_TRACE_TRACE_LOG_TRACE_LOG_H

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/fs.h"
#include "trace/trace_log/codec.h"
#include "trace/workload.h"

namespace skybyte {

/** Records per block unless the writer is told otherwise. 4096
 *  records ≈ 64 KB raw payload: large enough to compress well, small
 *  enough that a handful of in-flight blocks is megabytes. */
constexpr std::uint32_t kTraceLogDefaultBlockRecords = 4096;

/** @name Process-wide decoded-block accounting.
 * Every live DecodedBlock increments the gauge; the peak is the
 * bounded-memory witness the replay tests assert on. @{ */
std::uint64_t liveDecodedBlocks();
std::uint64_t peakLiveDecodedBlocks();
/** Reset the peak to the current live count (test isolation). */
void resetPeakLiveDecodedBlocks();
/** @} */

namespace detail {

/** RAII tick on the live-decoded-block gauge (move transfers it). */
class BlockGauge
{
  public:
    BlockGauge();
    BlockGauge(BlockGauge &&other) noexcept : armed_(other.armed_)
    {
        other.armed_ = false;
    }
    BlockGauge &operator=(BlockGauge &&other) noexcept;
    BlockGauge(const BlockGauge &) = delete;
    BlockGauge &operator=(const BlockGauge &) = delete;
    ~BlockGauge();

  private:
    void release() noexcept;

    bool armed_ = true;
};

} // namespace detail

/** One decompressed block: a contiguous slice of a thread's stream. */
struct DecodedBlock
{
    int tid = 0;
    /** Stream index of records[0] within thread @c tid. */
    std::uint64_t firstRecord = 0;
    std::vector<TraceRecord> records;
    /** @name Storage stats (for skybyte_traceinfo). @{ */
    std::uint32_t rawBytes = 0;
    std::uint32_t storedBytes = 0;
    bool compressed = false;
    /** @} */

  private:
    friend class TraceLogReader;
    detail::BlockGauge gauge_;
};

/**
 * Streaming STRC writer. append() buffers at most one block per
 * thread and flushes full blocks straight to the temp file; finish()
 * flushes the tails, writes index + trailer, and commits the rename.
 * A writer destroyed before finish() leaves no file behind.
 */
class TraceLogWriter
{
  public:
    /** @throws std::runtime_error / std::invalid_argument on a bad
     *  destination or out-of-range parameters. */
    TraceLogWriter(const std::string &path, const std::string &name,
                   std::uint64_t footprint_bytes, int num_threads,
                   std::uint32_t block_records =
                       kTraceLogDefaultBlockRecords);

    void append(int tid, const TraceRecord &rec);

    /** @return total records written. @throws on I/O failure. */
    std::uint64_t finish();

  private:
    void flushBlock(int tid);

    struct PerThread
    {
        std::vector<TraceRecord> pending;
        std::vector<std::uint64_t> blockOffsets;
        std::vector<std::uint32_t> blockCounts;
        std::uint64_t totalRecords = 0;
    };

    AtomicFileWriter out_;
    std::uint32_t blockRecords_;
    std::vector<PerThread> threads_;
    bool finished_ = false;
};

/**
 * Capture all of @p workload into an STRC file at @p path.
 * @return number of records written.
 */
std::uint64_t writeTraceLog(const std::string &path, Workload &workload,
                            std::uint32_t block_records =
                                kTraceLogDefaultBlockRecords);

/**
 * STRC reader: header + footer index are parsed (and CRC-checked)
 * up front; record data is fetched one block at a time via
 * readBlock(). Not thread-safe — each replay workload owns its own
 * reader and decodes on the thread that runs it.
 */
class TraceLogReader
{
  public:
    /** @throws TraceLogError / std::runtime_error on open or parse
     *  failure — a truncated or corrupt file never yields a reader. */
    explicit TraceLogReader(const std::string &path);

    /** In-memory variant (fuzz and unit tests). */
    explicit TraceLogReader(std::vector<std::uint8_t> bytes);

    const std::string &name() const { return name_; }
    std::uint64_t footprintBytes() const { return footprint_; }
    int numThreads() const
    {
        return static_cast<int>(threads_.size());
    }
    std::uint32_t blockRecords() const { return blockRecords_; }
    std::uint64_t totalRecords(int tid) const
    {
        return threads_[static_cast<std::size_t>(tid)].totalRecords;
    }
    std::uint64_t blockCount(int tid) const
    {
        return threads_[static_cast<std::size_t>(tid)]
            .blockOffsets.size();
    }
    std::uint64_t fileSize() const { return fileSize_; }
    /** Blocks decoded by this reader over its lifetime. */
    std::uint64_t blocksDecoded() const { return blocksDecoded_; }

    /** Fetch and decode one block. @throws TraceLogError on a bad
     *  block header, CRC mismatch, or malformed payload. */
    DecodedBlock readBlock(int tid, std::uint64_t block_idx);

  private:
    struct PerThread
    {
        std::vector<std::uint64_t> blockOffsets;
        std::vector<std::uint32_t> blockCounts;
        std::uint64_t totalRecords = 0;
    };

    void readAt(std::uint64_t offset, void *dest, std::size_t size);
    void parse();

    std::ifstream file_;
    std::vector<std::uint8_t> buf_; ///< in-memory source when non-file
    bool fromBuffer_ = false;
    std::string pathLabel_;
    std::uint64_t fileSize_ = 0;

    std::string name_;
    std::uint64_t footprint_ = 0;
    std::uint32_t blockRecords_ = 0;
    std::uint64_t dataEnd_ = 0; ///< first byte past the last block
    std::vector<PerThread> threads_;
    std::uint64_t blocksDecoded_ = 0;
};

} // namespace skybyte

#endif // SKYBYTE_TRACE_TRACE_LOG_TRACE_LOG_H
