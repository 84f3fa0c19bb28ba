/**
 * @file
 * Unit tests for the ISA-preference mask coder.
 */

#include <gtest/gtest.h>

#include "coder/isa_coder.hh"
#include "common/rng.hh"
#include "isa/encoding.hh"

namespace bvf::coder
{
namespace
{

TEST(IsaCoder, SelfInverse)
{
    const IsaCoder c(isa::paperIsaMask(isa::GpuArch::Pascal));
    Rng rng(1);
    for (int i = 0; i < 100000; ++i) {
        const Word64 w = rng.nextU64();
        EXPECT_EQ(c.decode(c.encode(w)), w);
    }
}

TEST(IsaCoder, MaskedPositionsKeptWhenOne)
{
    // b xnor m: where the mask is 1, a 1 bit stays 1; where the mask is
    // 0, a 0 bit becomes 1.
    const IsaCoder c(0xf0f0f0f0f0f0f0f0ull);
    const Word64 all_one = ~0ull;
    const Word64 all_zero = 0ull;
    EXPECT_EQ(c.encode(all_one), 0xf0f0f0f0f0f0f0f0ull);
    EXPECT_EQ(c.encode(all_zero), 0x0f0f0f0f0f0f0f0full);
}

TEST(IsaCoder, EncodingMaskedInstructionYieldsAllOnes)
{
    // An instruction that equals the mask encodes to all 1s: the mask
    // is by construction the most likely bit pattern.
    const Word64 mask = isa::paperIsaMask(isa::GpuArch::Maxwell);
    const IsaCoder c(mask);
    EXPECT_EQ(c.encode(mask), ~0ull);
}

TEST(IsaCoder, EncodeIsXorWithMaskComplement)
{
    // The accountant counts ISA images as the raw instruction XOR
    // ~mask().
    const IsaCoder c(isa::paperIsaMask(isa::GpuArch::Pascal));
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const Word64 w = rng.nextU64();
        ASSERT_EQ(c.encode(w), w ^ ~c.mask()) << std::hex << w;
    }
    EXPECT_EQ(c.encode(0), ~c.mask());
}

TEST(IsaCoder, SpanEncoding)
{
    const IsaCoder c(isa::paperIsaMask(isa::GpuArch::Kepler));
    std::vector<Word64> v = {0ull, 1ull, ~0ull, 0x123456789abcdef0ull};
    std::vector<Word64> expect;
    for (Word64 w : v)
        expect.push_back(c.encode(w));
    c.encodeSpan(v);
    EXPECT_EQ(v, expect);
}

TEST(IsaCoder, RaisesOnesOnSuiteBinaries)
{
    // The whole point: encoded instruction binaries carry more ones.
    for (const auto arch : isa::allGpuArchs()) {
        const isa::InstructionEncoder enc(arch);
        const IsaCoder c(isa::paperIsaMask(arch));
        Rng rng(42);
        std::uint64_t raw = 0, coded = 0;
        for (int i = 0; i < 5000; ++i) {
            isa::Instruction instr;
            instr.op = static_cast<isa::Opcode>(rng.nextBounded(8));
            instr.dst = static_cast<std::uint8_t>(rng.nextBounded(24));
            instr.srcA = static_cast<std::uint8_t>(rng.nextBounded(24));
            instr.srcB = static_cast<std::uint8_t>(rng.nextBounded(24));
            instr.imm = static_cast<std::int32_t>(rng.nextBounded(128));
            if (isa::isControlOp(instr.op) || instr.op == isa::Opcode::SetP
                || isa::isMemoryOp(instr.op)) {
                instr.op = isa::Opcode::IAdd;
            }
            const Word64 bin = enc.encode(instr);
            raw += static_cast<std::uint64_t>(hammingWeight64(bin));
            coded += static_cast<std::uint64_t>(
                hammingWeight64(c.encode(bin)));
        }
        EXPECT_GT(coded, raw) << isa::gpuArchName(arch);
    }
}

TEST(IsaCoder, NameContainsMask)
{
    const IsaCoder c(0x4818000000070201ull);
    EXPECT_NE(c.name().find("4818000000070201"), std::string::npos);
}

} // namespace
} // namespace bvf::coder
