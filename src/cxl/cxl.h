/**
 * @file
 * CXL.mem transport model (§II-A, §III-A, Figure 8).
 *
 * Message types follow the CXL.mem master-to-slave request (M2S Req) and
 * slave-to-master (S2M) classes the paper uses: MemRd / MemWr requests,
 * MemData data responses, and No-Data-Responses (NDR) whose opcode space
 * SkyByte extends with the SkyByte-Delay opcode (0b111) to signal a long
 * access delay back to the host.
 *
 * The link itself models the PCIe 5.0 x4 transport: a fixed protocol
 * latency per direction plus a shared bandwidth queue (Table II: 16 GB/s,
 * 40 ns).
 */

#ifndef SKYBYTE_CXL_CXL_H
#define SKYBYTE_CXL_CXL_H

#include <cstdint>
#include <functional>

#include "common/config.h"
#include "common/event_queue.h"
#include "common/types.h"

namespace skybyte {

/**
 * S2M NDR opcodes (Figure 8). SkyByte claims one reserved encoding for
 * the long-delay indication.
 */
enum class CxlNdrOpcode : std::uint8_t
{
    Cmp = 0b000,           ///< completion (writebacks/reads/invalidates)
    CmpS = 0b001,          ///< CXL.cache coherence completion (shared)
    CmpE = 0b010,          ///< CXL.cache coherence completion (exclusive)
    BiConflictAck = 0b100, ///< back-invalidate conflict ack
    SkyByteDelay = 0b111,  ///< long access delay indication (SkyByte)
};

/**
 * Bidirectional CXL link with per-direction bandwidth queues.
 * Timing only; the SSD controller sits on the far side.
 */
class CxlLink
{
  public:
    CxlLink(EventQueue &eq, const CxlConfig &cfg);

    /**
     * When does a @p bytes payload sent at @p when arrive at the device?
     */
    Tick deliverToDevice(Tick when, std::uint32_t bytes);

    /** When does a @p bytes payload sent at @p when arrive at the host? */
    Tick deliverToHost(Tick when, std::uint32_t bytes);

    /** Total payload bytes moved in both directions. */
    std::uint64_t bytesTransferred() const { return bytes_; }

    /** Allocate a fresh 16-bit transaction tag. */
    std::uint16_t nextTag() { return tag_++; }

    Tick protocolLatency() const { return protocolLatency_; }

  private:
    Tick transfer(Tick when, std::uint32_t bytes, Tick &dir_free);

    EventQueue &eq_;
    Tick protocolLatency_;
    double bytesPerNs_;
    Tick toDeviceFree_ = 0;
    Tick toHostFree_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint16_t tag_ = 0;
};

} // namespace skybyte

#endif // SKYBYTE_CXL_CXL_H
