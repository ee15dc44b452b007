/**
 * @file
 * Tests for the Figure 8 NDR flit codec (§III-A C1/C2): bit layout,
 * reserved-opcode handling, valid-bit semantics, and exhaustive tag
 * round-trips.
 */

#include <gtest/gtest.h>

#include "cxl/ndr.h"

namespace skybyte {
namespace {

TEST(NdrCodec, RoundTripsEveryDefinedOpcode)
{
    for (const CxlNdrOpcode opcode :
         {CxlNdrOpcode::Cmp, CxlNdrOpcode::CmpS, CxlNdrOpcode::CmpE,
          CxlNdrOpcode::BiConflictAck, CxlNdrOpcode::SkyByteDelay}) {
        NdrMessage msg;
        msg.valid = true;
        msg.opcode = opcode;
        msg.tag = 0xbeef;
        const auto decoded = decodeNdr(encodeNdr(msg));
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(decoded->opcode, opcode);
        EXPECT_EQ(decoded->tag, 0xbeef);
        EXPECT_TRUE(decoded->valid);
    }
}

TEST(NdrCodec, BitLayoutMatchesFigure8)
{
    NdrMessage msg;
    msg.valid = true;
    msg.opcode = CxlNdrOpcode::SkyByteDelay; // 0b111
    msg.tag = 0x1234;
    const NdrFlit flit = encodeNdr(msg);
    EXPECT_EQ(flit & 1, 1u);                   // valid, bit 0
    EXPECT_EQ((flit >> 1) & 0b111, 0b111u);    // opcode, bits 1..3
    EXPECT_EQ((flit >> 4) & 0xf, 0u);          // reserved 4 bits
    EXPECT_EQ((flit >> 8) & 0xffff, 0x1234u);  // tag, bits 8..23
    EXPECT_EQ(flit >> 24, 0u);                 // reserved 16 bits
    EXPECT_LT(flit, 1ULL << kNdrFlitBits);     // fits in 40 bits
}

TEST(NdrCodec, InvalidFlitDecodesToNothing)
{
    NdrMessage msg;
    msg.valid = false;
    msg.opcode = CxlNdrOpcode::Cmp;
    msg.tag = 7;
    EXPECT_FALSE(decodeNdr(encodeNdr(msg)).has_value());
    EXPECT_FALSE(decodeNdr(0).has_value());
}

TEST(NdrCodec, ReservedOpcodesRejected)
{
    for (const std::uint8_t reserved : {0b011, 0b101, 0b110}) {
        EXPECT_FALSE(ndrOpcodeDefined(reserved));
        const NdrFlit flit =
            1ULL | (static_cast<NdrFlit>(reserved) << 1);
        EXPECT_FALSE(decodeNdr(flit).has_value());
    }
    EXPECT_TRUE(ndrOpcodeDefined(0b111)); // SkyByte claims this one
}

TEST(NdrCodec, StrayHighBitsRejected)
{
    NdrMessage msg;
    msg.valid = true;
    msg.tag = 1;
    const NdrFlit flit = encodeNdr(msg) | (1ULL << kNdrFlitBits);
    EXPECT_FALSE(decodeNdr(flit).has_value());
}

TEST(NdrCodec, TagRoundTripsExhaustively)
{
    // Every 256th tag plus the edges: cheap but covers both bytes.
    for (std::uint32_t tag = 0; tag <= 0xffff; tag += 257) {
        NdrMessage msg;
        msg.valid = true;
        msg.opcode = CxlNdrOpcode::SkyByteDelay;
        msg.tag = static_cast<std::uint16_t>(tag);
        const auto decoded = decodeNdr(encodeNdr(msg));
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(decoded->tag, tag);
    }
}

} // namespace
} // namespace skybyte
