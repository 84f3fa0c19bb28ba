/**
 * @file
 * Unit tests for opcode classification.
 */

#include <gtest/gtest.h>

#include "isa/opcode.hh"

namespace bvf::isa
{
namespace
{

TEST(Opcode, LoadStoreClassification)
{
    EXPECT_TRUE(isLoadOp(Opcode::Ldg));
    EXPECT_TRUE(isLoadOp(Opcode::Lds));
    EXPECT_TRUE(isLoadOp(Opcode::Ldc));
    EXPECT_TRUE(isLoadOp(Opcode::Ldt));
    EXPECT_FALSE(isLoadOp(Opcode::Stg));
    EXPECT_TRUE(isStoreOp(Opcode::Stg));
    EXPECT_TRUE(isStoreOp(Opcode::Sts));
    EXPECT_FALSE(isStoreOp(Opcode::Ldg));
    EXPECT_TRUE(isMemoryOp(Opcode::Ldg));
    EXPECT_TRUE(isMemoryOp(Opcode::Sts));
    EXPECT_FALSE(isMemoryOp(Opcode::IAdd));
}

TEST(Opcode, MemorySpaceColumnMatchesTheOperandForm)
{
    EXPECT_EQ(memSpace(Opcode::Ldg), MemSpace::Global);
    EXPECT_EQ(memSpace(Opcode::Stg), MemSpace::Global);
    EXPECT_EQ(memSpace(Opcode::Lds), MemSpace::Shared);
    EXPECT_EQ(memSpace(Opcode::Sts), MemSpace::Shared);
    EXPECT_EQ(memSpace(Opcode::Ldc), MemSpace::Constant);
    EXPECT_EQ(memSpace(Opcode::Ldt), MemSpace::Texture);
    for (std::size_t i = 0; i < opcodeTable.size(); ++i) {
        const auto op = static_cast<Opcode>(i);
        EXPECT_EQ(memSpace(op) != MemSpace::None, isMemoryOp(op))
            << opcodeName(op);
    }
}

TEST(Opcode, ControlClassification)
{
    for (const auto op :
         {Opcode::Bra, Opcode::Exit, Opcode::Bar, Opcode::Nop})
        EXPECT_TRUE(isControlOp(op));
    for (const auto op : {Opcode::IAdd, Opcode::Ldg, Opcode::SetP})
        EXPECT_FALSE(isControlOp(op));
}

TEST(Opcode, RegisterWriters)
{
    EXPECT_TRUE(writesRegister(Opcode::IAdd));
    EXPECT_TRUE(writesRegister(Opcode::Ldg));
    EXPECT_TRUE(writesRegister(Opcode::Mov));
    EXPECT_FALSE(writesRegister(Opcode::Stg));
    EXPECT_FALSE(writesRegister(Opcode::SetP));
    EXPECT_FALSE(writesRegister(Opcode::Bra));
    EXPECT_FALSE(writesRegister(Opcode::Exit));
}

TEST(Opcode, SourceOperandUse)
{
    EXPECT_TRUE(readsSrcA(Opcode::IAdd));
    EXPECT_TRUE(readsSrcB(Opcode::IAdd));
    EXPECT_FALSE(readsSrcA(Opcode::Mov));
    EXPECT_TRUE(readsSrcB(Opcode::Mov));
    EXPECT_FALSE(readsSrcA(Opcode::S2R));
    EXPECT_FALSE(readsSrcB(Opcode::S2R));
    EXPECT_TRUE(readsSrcA(Opcode::Ldg));  // address register
    EXPECT_FALSE(readsSrcB(Opcode::Ldg));
    EXPECT_TRUE(readsSrcB(Opcode::Stg));  // store data
    EXPECT_FALSE(readsSrcA(Opcode::Bra));
}

TEST(Opcode, EveryOpcodeHasNameAndLatency)
{
    for (int i = 0; i < static_cast<int>(Opcode::NumOpcodes); ++i) {
        const auto op = static_cast<Opcode>(i);
        EXPECT_FALSE(opcodeName(op).empty());
        EXPECT_GE(opcodeLatency(op), 0);
    }
}

TEST(Opcode, FmaLongerThanAdd)
{
    EXPECT_GT(opcodeLatency(Opcode::Ffma), opcodeLatency(Opcode::IAdd));
}

} // namespace
} // namespace bvf::isa
