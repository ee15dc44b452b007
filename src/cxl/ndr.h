/**
 * @file
 * Bit-exact No-Data-Response (NDR) flit codec (Figure 8, §III-A step
 * C1/C2).
 *
 * Figure 8 lays the NDR message out as
 *
 *     | 1-bit | 3-bit  | 4-bit    | 16-bit | 16-bit   |
 *     | Valid | Opcode | reserved | Tag    | reserved |
 *
 * 40 bits total. The SSD answers a MemRd that will stall for a long
 * time with an NDR carrying the SkyByte-Delay opcode (a reserved
 * encoding, 0b111) and the request's tag (CxlLink::nextTag()); the
 * host CXL controller uses the tag to find the LLC MSHR entry and
 * raise the Long Delay Exception on the right core (C3).
 */

#ifndef SKYBYTE_CXL_NDR_H
#define SKYBYTE_CXL_NDR_H

#include <cstdint>
#include <optional>

#include "cxl/cxl.h"

namespace skybyte {

/** A decoded NDR message (Figure 8 fields, reserved bits dropped). */
struct NdrMessage
{
    bool valid = false;
    CxlNdrOpcode opcode = CxlNdrOpcode::Cmp;
    std::uint16_t tag = 0;
};

/** Raw 40-bit NDR flit, stored right-aligned in a 64-bit word. */
using NdrFlit = std::uint64_t;

/** Number of meaningful bits in an NDR flit. */
inline constexpr std::uint32_t kNdrFlitBits = 40;

/** Encode @p msg into the Figure 8 bit layout. */
NdrFlit encodeNdr(const NdrMessage &msg);

/**
 * Decode a flit. Returns nullopt when the valid bit is clear or the
 * opcode is a reserved encoding SkyByte does not define.
 */
std::optional<NdrMessage> decodeNdr(NdrFlit flit);

/** Is @p opcode one of the defined (non-reserved) NDR encodings? */
bool ndrOpcodeDefined(std::uint8_t opcode);

} // namespace skybyte

#endif // SKYBYTE_CXL_NDR_H
