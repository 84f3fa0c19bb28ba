/**
 * @file
 * Kernel assembler: grammar coverage, parse/render inversion over the
 * whole evaluation suite, and line-accurate diagnostics.
 */

#include <gtest/gtest.h>

#include "isa/asm.hh"
#include "isa/bytecode.hh"
#include "workload/kernel_builder.hh"

using namespace bvf;

namespace
{

isa::Program
mustParse(const std::string &text)
{
    auto parsed = isa::parseAsm(text);
    EXPECT_TRUE(parsed.ok()) << parsed.error().message;
    return parsed.ok() ? parsed.value() : isa::Program{};
}

} // namespace

TEST(Asm, ParsesDirectivesLabelsGuardsAndImmediates)
{
    const isa::Program p = mustParse(
        "# leading comment\n"
        ".kernel demo kernel+name\n"
        ".launch 4 96\n"
        ".shared 512\n"
        ".global 16\n"
        ".data global 2 0xdead 0xbeef\n"
        "    S2R R1, SR_TIDX       // trailing comment\n"
        "    MOV R2, #-3\n"
        "    SETP.NE P1, R1, #0\n"
        "L3:\n"
        "    @P1 IADD R2, R2, #1\n"
        "    @!P1 BRA L6, join=L6\n"
        "    STG [R1 + 4], R2\n"
        "L6:\n"
        "    EXIT\n");

    EXPECT_EQ(p.name, "demo kernel+name");
    EXPECT_EQ(p.launch.gridBlocks, 4);
    EXPECT_EQ(p.launch.blockThreads, 96);
    EXPECT_EQ(p.sharedBytesPerBlock, 512u);
    ASSERT_EQ(p.global.size(), 16u);
    EXPECT_EQ(p.global[2], 0xdeadu);
    EXPECT_EQ(p.global[3], 0xbeefu);
    ASSERT_EQ(p.body.size(), 7u);

    EXPECT_EQ(p.body[1].imm, -3);
    EXPECT_TRUE(p.body[1].immB);
    EXPECT_EQ(p.body[3].pred, 1);
    EXPECT_FALSE(p.body[3].predNegate);
    EXPECT_EQ(p.body[4].pred, 1);
    EXPECT_TRUE(p.body[4].predNegate);
    EXPECT_EQ(p.body[4].imm, 6);    // label L6 resolved
    EXPECT_EQ(p.body[4].reconv, 6); // join= resolved
}

TEST(Asm, RenderParseEncodeIsTheIdentityOverTheSuite)
{
    for (const auto &spec : workload::evaluationSuite()) {
        const isa::Program program = workload::buildProgram(spec);
        auto reparsed = isa::parseAsm(isa::renderAsm(program));
        ASSERT_TRUE(reparsed.ok())
            << spec.abbr << ": " << reparsed.error().message;
        EXPECT_EQ(isa::encodeProgram(reparsed.value()),
                  isa::encodeProgram(program))
            << spec.abbr;
    }
}

TEST(Asm, RenderInstructionShapes)
{
    isa::Instruction i;
    i.op = isa::Opcode::IAdd;
    i.dst = 3;
    i.srcA = 1;
    i.srcB = 2;
    EXPECT_EQ(isa::renderInstruction(i), "IADD R3, R1, R2");

    i.srcB = 0;
    i.immB = true;
    i.imm = 42;
    EXPECT_EQ(isa::renderInstruction(i), "IADD R3, R1, #42");

    isa::Instruction ld;
    ld.op = isa::Opcode::Ldg;
    ld.dst = 9;
    ld.srcA = 5;
    ld.imm = 16;
    EXPECT_EQ(isa::renderInstruction(ld), "LDG R9, [R5 + 16]");

    isa::Instruction br;
    br.op = isa::Opcode::Bra;
    br.pred = 1;
    br.predNegate = true;
    br.imm = 7;
    br.reconv = 9;
    EXPECT_EQ(isa::renderInstruction(br), "@!P1 BRA 7, join=9");
    EXPECT_EQ(isa::renderInstruction(br, 10), "@!P1 BRA L7, join=L9");

    // Every (canonical) rendered line parses back to the instruction.
    for (const isa::Instruction &instr : {i, ld, br}) {
        const isa::Program p =
            mustParse(".launch 1 32\n" + isa::renderInstruction(instr));
        ASSERT_EQ(p.body.size(), 1u);
        EXPECT_EQ(p.body[0], instr);
    }
}

TEST(Asm, UnknownMnemonicNamesTheLine)
{
    auto parsed = isa::parseAsm(".kernel k\n"
                                ".launch 1 32\n"
                                "    LDQ R1, [R2 + 0]\n"
                                "    EXIT\n");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::InvalidArgument);
    EXPECT_NE(parsed.error().message.find("line 3"), std::string::npos)
        << parsed.error().message;
}

TEST(Asm, UnresolvedLabelIsAnError)
{
    auto parsed = isa::parseAsm(".kernel k\n"
                                ".launch 1 32\n"
                                "    BRA Lmissing, join=Lmissing\n"
                                "    EXIT\n");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::InvalidArgument);
}

TEST(Asm, OutOfRangeRegisterIsAnError)
{
    auto parsed = isa::parseAsm(".kernel k\n"
                                ".launch 1 32\n"
                                "    MOV R999, #0\n"
                                "    EXIT\n");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::InvalidArgument);
}

TEST(Asm, EmptyInputParsesToAnEmptyProgram)
{
    // The parser is a syntax layer: an empty body is representable,
    // and keeping it out of the machine is the admission verifier's
    // job (it rejects a body that can fall off the end).
    auto parsed = isa::parseAsm("# only a comment\n");
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_TRUE(parsed.value().body.empty());
}
