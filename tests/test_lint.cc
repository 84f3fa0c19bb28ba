/**
 * @file
 * Linter tests: one positive and one negative case per diagnostic.
 */

#include <gtest/gtest.h>

#include "analysis/lint.hh"

using namespace bvf;
using namespace bvf::analysis;
using isa::CmpOp;
using isa::Instruction;
using isa::Opcode;

namespace
{

Instruction
movImm(std::uint8_t dst, std::int32_t imm)
{
    Instruction i;
    i.op = Opcode::Mov;
    i.dst = dst;
    i.immB = true;
    i.imm = imm;
    return i;
}

Instruction
alu(Opcode op, std::uint8_t dst, std::uint8_t a, std::uint8_t b)
{
    Instruction i;
    i.op = op;
    i.dst = dst;
    i.srcA = a;
    i.srcB = b;
    return i;
}

Instruction
aluImm(Opcode op, std::uint8_t dst, std::uint8_t a, std::int32_t imm)
{
    Instruction i;
    i.op = op;
    i.dst = dst;
    i.srcA = a;
    i.immB = true;
    i.imm = imm;
    return i;
}

Instruction
setpImm(std::uint8_t pred, CmpOp cmp, std::uint8_t a, std::int32_t imm)
{
    Instruction i;
    i.op = Opcode::SetP;
    i.dst = pred;
    i.srcA = a;
    i.flags = static_cast<std::uint8_t>(cmp);
    i.immB = true;
    i.imm = imm;
    return i;
}

Instruction
bra(std::int32_t target, std::int32_t reconv)
{
    Instruction i;
    i.op = Opcode::Bra;
    i.imm = target;
    i.reconv = reconv;
    return i;
}

Instruction
exitInstr()
{
    Instruction i;
    i.op = Opcode::Exit;
    return i;
}

isa::Program
makeProgram(std::vector<Instruction> body)
{
    isa::Program p;
    p.name = "lint-test";
    p.body = std::move(body);
    p.launch.gridBlocks = 1;
    p.launch.blockThreads = 32;
    return p;
}

int
countCode(const std::vector<LintFinding> &findings, LintCode code)
{
    int n = 0;
    for (const auto &f : findings)
        n += f.code == code;
    return n;
}

/** r4 = globalSegmentBase without overflowing the 16-bit immediate. */
std::vector<Instruction>
globalBase(std::uint8_t reg)
{
    return {movImm(reg, 0x100), aluImm(Opcode::Shl, reg, reg, 8)};
}

} // namespace

TEST(LintTest, CleanKernelHasNoFindings)
{
    auto body = globalBase(4);
    body.push_back(movImm(5, 7));
    body.push_back(alu(Opcode::Stg, 0, 4, 5));
    body.push_back(exitInstr());
    const auto f = lintProgram(makeProgram(std::move(body)));
    EXPECT_TRUE(f.empty())
        << (f.empty() ? std::string{} : f.front().toString());
}

TEST(LintTest, UninitRegRead)
{
    // r4 read before any write.
    auto pos = makeProgram({
        aluImm(Opcode::IAdd, 5, 4, 1),
        alu(Opcode::Stg, 0, 5, 5),
        exitInstr(),
    });
    EXPECT_EQ(countCode(lintProgram(pos), LintCode::UninitRegRead), 1);

    auto neg = makeProgram({
        movImm(4, 3),
        aluImm(Opcode::IAdd, 5, 4, 1),
        alu(Opcode::Stg, 0, 5, 5),
        exitInstr(),
    });
    EXPECT_EQ(countCode(lintProgram(neg), LintCode::UninitRegRead), 0);
}

TEST(LintTest, UninitRegReadOnAccumulator)
{
    // FFMA reads its own destination; an unwritten accumulator counts.
    auto body = std::vector<Instruction>{
        movImm(4, 1),
        alu(Opcode::Ffma, 6, 4, 4), // r6 read as accumulator, never set
        alu(Opcode::Stg, 0, 4, 6),
        exitInstr(),
    };
    const auto f = lintProgram(makeProgram(std::move(body)));
    EXPECT_EQ(countCode(f, LintCode::UninitRegRead), 1);
}

TEST(LintTest, UninitPredRead)
{
    Instruction guarded = movImm(5, 1);
    guarded.pred = 1;
    auto pos = makeProgram({guarded, exitInstr()});
    EXPECT_EQ(countCode(lintProgram(pos), LintCode::UninitPredRead), 1);

    auto neg = makeProgram({
        movImm(4, 0),
        setpImm(1, CmpOp::Lt, 4, 5),
        guarded,
        exitInstr(),
    });
    EXPECT_EQ(countCode(lintProgram(neg), LintCode::UninitPredRead), 0);
}

TEST(LintTest, DeadWrite)
{
    // r5 written, never read.
    auto pos = makeProgram({movImm(5, 7), exitInstr()});
    EXPECT_EQ(countCode(lintProgram(pos), LintCode::DeadWrite), 1);

    auto body = globalBase(4);
    body.push_back(movImm(5, 7));
    body.push_back(alu(Opcode::Stg, 0, 4, 5));
    body.push_back(exitInstr());
    EXPECT_EQ(countCode(lintProgram(makeProgram(std::move(body))),
                        LintCode::DeadWrite),
              0);
}

TEST(LintTest, DeadPredicateWrite)
{
    auto pos = makeProgram({
        movImm(4, 0),
        setpImm(1, CmpOp::Lt, 4, 5), // p1 never guards anything
        alu(Opcode::Stg, 0, 4, 4),
        exitInstr(),
    });
    EXPECT_EQ(countCode(lintProgram(pos), LintCode::DeadWrite), 1);
}

TEST(LintTest, Unreachable)
{
    // Unconditional branch over pc1.
    auto pos = makeProgram({
        bra(2, 2),
        movImm(5, 1),
        exitInstr(),
    });
    EXPECT_EQ(countCode(lintProgram(pos), LintCode::Unreachable), 1);

    auto neg = makeProgram({movImm(5, 1), alu(Opcode::Stg, 0, 5, 5),
                            exitInstr()});
    EXPECT_EQ(countCode(lintProgram(neg), LintCode::Unreachable), 0);
}

TEST(LintTest, SharedOob)
{
    // Offset 0x200 into a 128-byte shared segment.
    auto pos = makeProgram({
        movImm(4, 0x200),
        movImm(5, 1),
        alu(Opcode::Sts, 0, 4, 5),
        exitInstr(),
    });
    pos.sharedBytesPerBlock = 128;
    EXPECT_EQ(countCode(lintProgram(pos), LintCode::SharedOob), 1);

    auto neg = makeProgram({
        movImm(4, 0x40),
        movImm(5, 1),
        alu(Opcode::Sts, 0, 4, 5),
        exitInstr(),
    });
    neg.sharedBytesPerBlock = 128;
    EXPECT_EQ(countCode(lintProgram(neg), LintCode::SharedOob), 0);
}

TEST(LintTest, SharedAccessWithoutSegment)
{
    auto pos = makeProgram({
        movImm(4, 0),
        movImm(5, 1),
        alu(Opcode::Sts, 0, 4, 5),
        exitInstr(),
    });
    ASSERT_EQ(pos.sharedBytesPerBlock, 0u);
    EXPECT_EQ(countCode(lintProgram(pos), LintCode::SharedOob), 1);
}

TEST(LintTest, ConstOob)
{
    auto make = [](std::int32_t offset) {
        auto p = makeProgram({
            movImm(4, offset),
            alu(Opcode::Ldc, 6, 4, 0),
            alu(Opcode::Stg, 0, 4, 6),
            exitInstr(),
        });
        p.constants = {1, 2, 3, 4}; // 16 bytes
        return p;
    };
    EXPECT_EQ(countCode(lintProgram(make(64)), LintCode::ConstOob), 1);
    EXPECT_EQ(countCode(lintProgram(make(4)), LintCode::ConstOob), 0);
}

TEST(LintTest, TexOob)
{
    auto make = [](std::int32_t offset) {
        auto p = makeProgram({
            movImm(4, offset),
            alu(Opcode::Ldt, 6, 4, 0),
            alu(Opcode::Stg, 0, 4, 6),
            exitInstr(),
        });
        p.texture = {1, 2, 3, 4};
        return p;
    };
    EXPECT_EQ(countCode(lintProgram(make(64)), LintCode::TexOob), 1);
    EXPECT_EQ(countCode(lintProgram(make(0)), LintCode::TexOob), 0);
}

TEST(LintTest, NonCanonicalFields)
{
    // flags set on an opcode that ignores it.
    Instruction with_flags = aluImm(Opcode::IAdd, 5, 4, 1);
    with_flags.flags = 2;
    // srcA set on Mov, which does not read it.
    Instruction mov_a = movImm(6, 1);
    mov_a.srcA = 5;
    // reconv set on a non-branch.
    Instruction with_reconv = movImm(7, 1);
    with_reconv.reconv = 3;
    auto pos = makeProgram({
        movImm(4, 0),
        with_flags,
        mov_a,
        with_reconv,
        alu(Opcode::Stg, 0, 5, 6),
        alu(Opcode::Stg, 0, 5, 7),
        exitInstr(),
    });
    EXPECT_EQ(countCode(lintProgram(pos), LintCode::NonCanonical), 3);

    auto neg = makeProgram({
        movImm(4, 0),
        aluImm(Opcode::IAdd, 5, 4, 1),
        alu(Opcode::Stg, 0, 5, 5),
        exitInstr(),
    });
    EXPECT_EQ(countCode(lintProgram(neg), LintCode::NonCanonical), 0);
}

TEST(LintTest, NonCanonicalWideImmediate)
{
    auto pos = makeProgram({
        movImm(4, 0x10000), // exceeds the 16-bit encoding
        alu(Opcode::Stg, 0, 4, 4),
        exitInstr(),
    });
    EXPECT_EQ(countCode(lintProgram(pos), LintCode::NonCanonical), 1);
}

TEST(LintTest, NonCanonicalPtSentinelGuard)
{
    // p0 is the PT sentinel: "@!P0" would read it as a predicate.
    Instruction never = movImm(5, 1);
    never.predNegate = true;
    auto pos = makeProgram({never, exitInstr()});
    const auto findings = lintProgram(pos);
    ASSERT_EQ(countCode(findings, LintCode::NonCanonical), 1);
    for (const LintFinding &f : findings) {
        if (f.code == LintCode::NonCanonical) {
            EXPECT_EQ(f.toString(), "pc 0: non-canonical: guard reads the "
                                    "PT sentinel predicate (p0 with negate)");
        }
    }

    Instruction guarded = movImm(5, 1);
    guarded.pred = 1;
    guarded.predNegate = true;
    auto neg = makeProgram({movImm(4, 0), setpImm(1, CmpOp::Eq, 4, 0),
                            guarded, exitInstr()});
    EXPECT_EQ(countCode(lintProgram(neg), LintCode::NonCanonical), 0);
}

TEST(LintTest, UnknownOpcodeIsOneNonCanonicalFinding)
{
    // The field rules read the opcode table, so an unknown opcode ends
    // the check after one finding.
    Instruction unknown = movImm(70, 40000);
    unknown.op = static_cast<Opcode>(200);
    std::vector<LintFinding> findings;
    lintCanonical(3, unknown, findings);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings.front().code, LintCode::NonCanonical);
    EXPECT_EQ(findings.front().pc, 3);
    EXPECT_EQ(findings.front().message, "opcode 200 unknown");
}

TEST(LintTest, BadReconv)
{
    // Forward branch whose reconvergence precedes the target.
    auto pos = makeProgram({
        bra(2, 1),
        movImm(5, 1),
        exitInstr(),
    });
    EXPECT_GE(countCode(lintProgram(pos), LintCode::BadReconv), 1);

    auto neg = makeProgram({
        bra(2, 2),
        movImm(5, 1),
        exitInstr(),
    });
    EXPECT_EQ(countCode(lintProgram(neg), LintCode::BadReconv), 0);
}

TEST(LintTest, FallsOffEnd)
{
    auto pos = makeProgram({movImm(5, 1), alu(Opcode::Stg, 0, 5, 5)});
    EXPECT_GE(countCode(lintProgram(pos), LintCode::FallsOffEnd), 1);

    auto neg = makeProgram({movImm(5, 1), alu(Opcode::Stg, 0, 5, 5),
                            exitInstr()});
    EXPECT_EQ(countCode(lintProgram(neg), LintCode::FallsOffEnd), 0);
}

TEST(LintTest, EmptyBodyFallsOffEnd)
{
    const auto f = lintProgram(makeProgram({}));
    EXPECT_EQ(countCode(f, LintCode::FallsOffEnd), 1);
}

TEST(LintTest, FindingsSortedAndRendered)
{
    auto p = makeProgram({
        movImm(5, 1), // dead write at pc0
        exitInstr(),
    });
    const auto f = lintProgram(p);
    ASSERT_FALSE(f.empty());
    EXPECT_EQ(f.front().toString(),
              "pc 0: dead-write: r5 written but never read afterwards");
    for (std::size_t i = 1; i < f.size(); ++i)
        EXPECT_LE(f[i - 1].pc, f[i].pc);
    EXPECT_EQ(lintCodeName(LintCode::SharedOob), "shared-oob");
}
