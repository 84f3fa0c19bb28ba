/**
 * @file
 * Unit tests for the decoded-instruction representation.
 */

#include <gtest/gtest.h>

#include "isa/instruction.hh"
#include "isa/program.hh"

namespace bvf::isa
{
namespace
{

TEST(Instruction, DefaultIsCanonicalNop)
{
    const Instruction i;
    EXPECT_EQ(i.op, Opcode::Nop);
    EXPECT_EQ(i.dst, 0);
    EXPECT_EQ(i.pred, predTrue);
    EXPECT_FALSE(i.immB);
    EXPECT_EQ(i, Instruction{});
}

TEST(Instruction, EqualityCoversAllFields)
{
    Instruction a, b;
    a.op = b.op = Opcode::IAdd;
    a.dst = b.dst = 5;
    EXPECT_EQ(a, b);
    b.imm = 1;
    EXPECT_NE(a, b);
    b = a;
    b.predNegate = true;
    EXPECT_NE(a, b);
}

TEST(LaunchDims, WarpArithmetic)
{
    LaunchDims d;
    d.gridBlocks = 3;
    d.blockThreads = 100;
    EXPECT_EQ(d.warpsPerBlock(), 4); // 100 threads -> 4 warps (tail)
    EXPECT_EQ(d.totalThreads(), 300);
}

TEST(Program, GlobalBytes)
{
    Program p;
    p.global.assign(100, 0);
    EXPECT_EQ(p.globalBytes(), 400u);
    EXPECT_EQ(globalSegmentBase % 0x10000u, 0u); // 64KB aligned
}

} // namespace
} // namespace bvf::isa
