/**
 * @file
 * Interface between the CPU cache hierarchy and the off-chip memory
 * system (host DRAM, or the CXL-SSD through the CXL link).
 *
 * Demand reads complete asynchronously with either a data response or a
 * SkyByte-Delay hint (§III-A, C2). Writebacks of dirty LLC victims are
 * posted: nothing in the core waits on them.
 */

#ifndef SKYBYTE_CPU_MEM_BACKEND_H
#define SKYBYTE_CPU_MEM_BACKEND_H

#include <cstdint>

#include "common/inline_function.h"
#include "common/types.h"

namespace skybyte {

/** What a read response carries back to the cache hierarchy. */
enum class MemResponseKind
{
    Data,      ///< CXL.mem MemData (or host DRAM fill)
    DelayHint, ///< CXL.mem NDR with the SkyByte-Delay opcode
};

/** Off-chip memory request (one 64 B cacheline). */
struct MemRequest
{
    Addr lineAddr = 0;   ///< cacheline-aligned virtual address
    bool isWrite = false;
    int coreId = -1;
    LineValue value = 0; ///< functional payload for writes
};

/** Response to a demand read. */
struct MemResponse
{
    MemResponseKind kind = MemResponseKind::Data;
    Addr lineAddr = 0;
    LineValue value = 0; ///< functional payload for data responses
};

/**
 * Demand-read completion callback. Move-only with a 32-byte inline
 * buffer: every callback on the miss path (the uncore's response
 * dispatch, test harness captures) constructs inline, and handing the
 * callback down the router -> SSD -> event-queue chain moves it
 * instead of cloning a heap-backed std::function at each hop.
 */
using MemCallback = InlineFunction<void(const MemResponse &), 32>;

/**
 * Anything that can serve LLC misses: the memory router in the full
 * system, or a plain DRAM model in unit tests.
 */
class MemoryBackend
{
  public:
    virtual ~MemoryBackend() = default;

    /**
     * Issue a demand read at time @p when (>= now). Exactly one callback
     * will eventually fire: Data when the line is ready at the core, or
     * DelayHint when the SSD asks the host to context switch instead.
     */
    virtual void read(const MemRequest &req, Tick when, MemCallback cb) = 0;

    /** Posted write (dirty LLC victim) issued at time @p when. */
    virtual void write(const MemRequest &req, Tick when) = 0;
};

} // namespace skybyte

#endif // SKYBYTE_CPU_MEM_BACKEND_H
