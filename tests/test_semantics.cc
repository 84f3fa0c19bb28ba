/**
 * @file
 * The shared BVFK semantics (isa/semantics.hh): the SM and the
 * validator's reference interpreter agree on every suite kernel's final
 * global image, today's NaN propagation is pinned, F2I is total, and a
 * load returns the value memory held when it issued.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "analysis/equiv.hh"
#include "analysis/interpreter.hh"
#include "analysis/verifier.hh"
#include "common/rng.hh"
#include "gpu/gpu.hh"
#include "isa/asm.hh"
#include "isa/semantics.hh"
#include "sram/access_sink.hh"
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

/** Final global image of @p program run on the timing SM. */
std::vector<Word>
runOnSm(const isa::Program &program)
{
    sram::NullSink sink;
    gpu::Gpu machine(gpu::baselineConfig(), program, sink);
    machine.run();
    return machine.program().global;
}

std::vector<Word>
runOnReference(const isa::Program &program)
{
    const analysis::RefObservation obs =
        analysis::runReference(program, analysis::EquivOptions{}.maxSteps);
    EXPECT_TRUE(obs.finished) << program.name;
    return obs.globalFinal;
}

/**
 * An abstract value containing @p v: a random subset of its bits known
 * (now and then all of them) and a signed interval around it.
 */
analysis::AbsValue
abstractionAround(Rng &rng, Word v)
{
    analysis::AbsValue out = analysis::AbsValue::top();
    const Word mask = rng.nextBool(0.25) ? ~Word(0) : rng.nextU32();
    out.kb().knownZero = ~v & mask;
    out.kb().knownOne = v & mask;
    out.kb() = out.kb().normalized();
    const std::int64_t x = isa::asInt(v);
    out.si() = analysis::SignedInterval::range(
        static_cast<std::int32_t>(std::max<std::int64_t>(
            x - rng.nextBounded(1u << 16),
            std::numeric_limits<std::int32_t>::min())),
        static_cast<std::int32_t>(std::min<std::int64_t>(
            x + rng.nextBounded(1u << 16),
            std::numeric_limits<std::int32_t>::max())));
    return out;
}

} // namespace

// One test per suite kernel, so each stays inside the per-test timeout
// under the thread sanitizer.
class SemanticsCrossCheck : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SemanticsCrossCheck, SmAndReferenceAgreeOnFinalGlobalImage)
{
    const isa::Program program =
        workload::buildProgram(workload::evaluationSuite()[GetParam()]);
    const std::vector<Word> sm = runOnSm(program);
    const std::vector<Word> ref = runOnReference(program);
    ASSERT_EQ(sm.size(), ref.size());
    std::size_t diffs = 0;
    std::size_t first = sm.size();
    for (std::size_t w = 0; w < sm.size(); ++w) {
        if (sm[w] != ref[w]) {
            ++diffs;
            first = std::min(first, w);
        }
    }
    EXPECT_EQ(diffs, 0u) << "first difference at word " << first
                         << " (SM 0x" << std::hex
                         << (diffs ? sm[first] : 0) << ", reference 0x"
                         << (diffs ? ref[first] : 0) << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Suite, SemanticsCrossCheck,
    ::testing::Range<std::size_t>(0, workload::evaluationSuite().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return workload::evaluationSuite()[info.param].abbr;
    });

TEST(Semantics, NanPropagationMatchesTheSm)
{
    // n1 = 0x7fc00001, n2 = 0x7fc00002 (quiet), s3 = 0x7f800003
    // (signalling), one = 1.0f.
    const isa::Program program = mustParse(
        ".kernel nan\n"
        ".launch 1 32\n"
        ".global 8\n"
        "    MOV R1, #0x7fc00001\n"
        "    MOV R2, #0x7fc00002\n"
        "    MOV R3, #0x7f800003\n"
        "    MOV R4, #0x3f800000\n"
        "    MOV R10, #0x10000\n"
        "    FADD R11, R1, R2\n"
        "    FMUL R12, R1, R2\n"
        "    MOV R13, R2\n"
        "    FFMA R13, R1, R4\n"
        "    FADD R14, R3, R4\n"
        "    FADD R15, R2, R1\n"
        "    FMUL R16, R4, R3\n"
        "    STG [R10 + 0], R11\n"
        "    STG [R10 + 4], R12\n"
        "    STG [R10 + 8], R13\n"
        "    STG [R10 + 12], R14\n"
        "    STG [R10 + 16], R15\n"
        "    STG [R10 + 20], R16\n"
        "    EXIT\n");
    const std::vector<Word> sm = runOnSm(program);
    EXPECT_EQ(sm[0], 0x7fc00002u); // FADD(n1, n2): b's NaN wins
    EXPECT_EQ(sm[1], 0x7fc00002u); // FMUL(n1, n2): b's NaN wins
    EXPECT_EQ(sm[2], 0x7fc00001u); // FFMA(n1, 1, n2): product wins
    EXPECT_EQ(sm[3], 0x7fc00003u); // signalling NaN comes out quiet
    EXPECT_EQ(sm[4], 0x7fc00001u); // FADD(n2, n1)
    EXPECT_EQ(sm[5], 0x7fc00003u); // FMUL(1, s3)
}

TEST(Semantics, LoadSeesMemoryAsOfItsIssue)
{
    // The load misses, so the younger store to the same word lands
    // first; the loaded register must still hold the old value.
    const isa::Program program = mustParse(
        ".kernel order\n"
        ".launch 1 32\n"
        ".global 4\n"
        ".data global 0 0x11\n"
        "    MOV R10, #1\n"
        "    SHL R10, R10, #16\n"
        "    LDG R1, [R10 + 0]\n"
        "    MOV R2, #7\n"
        "    STG [R10 + 0], R2\n"
        "    STG [R10 + 4], R1\n"
        "    EXIT\n");
    ASSERT_TRUE(analysis::verifyProgram(program).admitted);
    const std::vector<Word> sm = runOnSm(program);
    const std::vector<Word> ref = runOnReference(program);
    EXPECT_EQ(ref[0], 7u);
    EXPECT_EQ(ref[1], 0x11u);
    EXPECT_EQ(sm, ref);
}

TEST(Semantics, F2IIsTotal)
{
    const auto f2i = [](Word bits) {
        return isa::evalAlu(isa::Opcode::F2I, bits, 0, 0);
    };
    constexpr Word kIndefinite = 0x80000000u;
    EXPECT_EQ(f2i(0x7fc00000u), kIndefinite); // quiet NaN
    EXPECT_EQ(f2i(0xffc00001u), kIndefinite); // negative NaN
    EXPECT_EQ(f2i(0x7f800001u), kIndefinite); // signalling NaN
    EXPECT_EQ(f2i(0x7f800000u), kIndefinite); // +inf
    EXPECT_EQ(f2i(0xff800000u), kIndefinite); // -inf
    EXPECT_EQ(f2i(0x4f000000u), kIndefinite); // +2^31
    EXPECT_EQ(f2i(0xcf000000u), kIndefinite); // -2^31, in range
    EXPECT_EQ(f2i(0x4effffffu), 0x7fffff80u); // largest float < 2^31
    EXPECT_EQ(f2i(0xcf000001u), kIndefinite); // below -2^31
    EXPECT_EQ(f2i(0x3fc00000u), 1u);          // 1.5 truncates
    EXPECT_EQ(f2i(0xbfc00000u), 0xffffffffu); // -1.5 truncates to -1
    EXPECT_EQ(f2i(0x80000000u), 0u);          // -0
    EXPECT_EQ(f2i(0x42f60000u), 123u);        // 123.0
}

TEST(Semantics, AbstractTransfersContainConcreteResults)
{
    Rng rng(0x5e3a0001u);
    const isa::LaunchDims launch;
    int checked_ops = 0;
    for (std::size_t i = 0; i < isa::opcodeTable.size(); ++i) {
        const auto op = static_cast<isa::Opcode>(i);
        if (!isa::isDataOp(op))
            continue;
        ++checked_ops;
        for (int round = 0; round < 4000; ++round) {
            isa::Instruction instr;
            instr.op = op;
            instr.dst = 3;
            instr.srcA = 1;
            instr.srcB = 2;
            if (isa::readsSrcB(op) && rng.nextBool(0.25)) {
                instr.immB = true;
                instr.imm = static_cast<std::int32_t>(rng.nextU32());
            }
            const Word a = rng.nextU32();
            const Word b = instr.immB ? static_cast<Word>(instr.imm)
                                      : rng.nextU32();
            const Word d = rng.nextU32();
            analysis::AbsState s;
            s.regs[1] = abstractionAround(rng, a);
            s.regs[2] = abstractionAround(rng, b);
            s.regs[3] = abstractionAround(rng, d);

            const Word want = isa::evalAlu(op, a, b, d);
            const analysis::AbsValue got =
                analysis::aluValue(instr, s, launch);
            ASSERT_TRUE(got.contains(want))
                << isa::opcodeName(op) << std::hex << "(0x" << a << ", 0x"
                << b << ", 0x" << d << ") = 0x" << want << " not in "
                << got.kb().toString() << " / " << got.si().toString();
        }
    }
    EXPECT_EQ(checked_ops, 18);
}
