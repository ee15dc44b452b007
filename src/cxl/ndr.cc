#include "cxl/ndr.h"

namespace skybyte {

namespace {

// Figure 8 layout, LSB first: valid | opcode | rsvd4 | tag | rsvd16.
constexpr std::uint32_t kValidShift = 0;
constexpr std::uint32_t kOpcodeShift = 1;
constexpr std::uint32_t kRsvd4Shift = 4;
constexpr std::uint32_t kTagShift = 8;
constexpr std::uint32_t kRsvd16Shift = 24;

} // namespace

bool
ndrOpcodeDefined(std::uint8_t opcode)
{
    switch (static_cast<CxlNdrOpcode>(opcode & 0b111)) {
      case CxlNdrOpcode::Cmp:
      case CxlNdrOpcode::CmpS:
      case CxlNdrOpcode::CmpE:
      case CxlNdrOpcode::BiConflictAck:
      case CxlNdrOpcode::SkyByteDelay:
        return true;
      default:
        return false; // 0b011, 0b101, 0b110 stay reserved
    }
}

NdrFlit
encodeNdr(const NdrMessage &msg)
{
    NdrFlit flit = 0;
    flit |= static_cast<NdrFlit>(msg.valid ? 1 : 0) << kValidShift;
    flit |= (static_cast<NdrFlit>(msg.opcode) & 0b111) << kOpcodeShift;
    flit |= static_cast<NdrFlit>(msg.tag) << kTagShift;
    // Both reserved fields (4 + 16 bits) transmit as zero.
    (void)kRsvd4Shift;
    (void)kRsvd16Shift;
    return flit;
}

std::optional<NdrMessage>
decodeNdr(NdrFlit flit)
{
    if (flit >> kNdrFlitBits)
        return std::nullopt; // stray bits beyond the 40-bit flit
    NdrMessage msg;
    msg.valid = ((flit >> kValidShift) & 1) != 0;
    if (!msg.valid)
        return std::nullopt;
    const auto opcode =
        static_cast<std::uint8_t>((flit >> kOpcodeShift) & 0b111);
    if (!ndrOpcodeDefined(opcode))
        return std::nullopt;
    msg.opcode = static_cast<CxlNdrOpcode>(opcode);
    msg.tag = static_cast<std::uint16_t>((flit >> kTagShift) & 0xffff);
    return msg;
}

} // namespace skybyte
