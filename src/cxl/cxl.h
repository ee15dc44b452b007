/**
 * @file
 * CXL.mem transport model (§II-A, §III-A, Figure 8).
 *
 * Messages are modelled by their size on the wire, not their bits:
 * MemRd / MemWr requests and the S2M MemData responses carry their
 * header and payload; the SkyByte-Delay No-Data-Response (the NDR
 * opcode SkyByte adds to signal a long access delay) is a 16 B header
 * that reaches the host as MemResponseKind::DelayHint.
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

    Tick protocolLatency() const { return protocolLatency_; }

  private:
    Tick transfer(Tick when, std::uint32_t bytes, Tick &dir_free);

    EventQueue &eq_;
    Tick protocolLatency_;
    double bytesPerNs_;
    Tick toDeviceFree_ = 0;
    Tick toHostFree_ = 0;
    std::uint64_t bytes_ = 0;
};

} // namespace skybyte

#endif // SKYBYTE_CXL_CXL_H
