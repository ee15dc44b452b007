#include "trace/trace_log/trace_log_workload.h"

namespace skybyte {

// The reader parses and CRC-checks the header and index here, so a
// corrupt capture fails at construction; blocks decode in refill().
TraceLogWorkload::TraceLogWorkload(const std::string &path)
    : reader_(path),
      threads_(static_cast<std::size_t>(reader_.numThreads()))
{}

std::uint32_t
TraceLogWorkload::refill(int tid, TraceBatch &batch)
{
    PerThread &th = threads_[static_cast<std::size_t>(tid)];
    batch.count = 0;
    batch.cursor = 0;

    if (!th.block || th.pos == th.block->records.size()) {
        th.block.reset(); // drop the drained block before decoding
        if (th.next == reader_.blockCount(tid))
            return 0; // stream exhausted
        // Advance only once the block decoded, so a refill after a
        // TraceLogError throws again instead of skipping the block.
        th.block = reader_.readBlock(tid, th.next);
        ++th.next;
        th.pos = 0;
    }

    const std::vector<TraceRecord> &records = th.block->records;
    std::uint32_t n = 0;
    while (n < TraceBatch::kCapacity && th.pos < records.size()) {
        const TraceRecord &rec = records[th.pos++];
        batch.records[n++] = rec;
        th.emitted += rec.computeOps + 1;
    }
    batch.count = n;
    return n;
}

} // namespace skybyte
