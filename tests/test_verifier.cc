/**
 * @file
 * Static admission verifier: the whole evaluation suite is admitted,
 * crafted hostile kernels are rejected with the right machine-readable
 * reason, and -- the heart -- a 1000-random-kernel soundness property:
 * every kernel the verifier admits simulates to completion under a
 * ContractProbe without ever exceeding its proven trip bound or
 * leaving its proven memory footprint.
 */

#include <gtest/gtest.h>

#include <string>

#include "analysis/lint.hh"
#include "analysis/verifier.hh"
#include "common/rng.hh"
#include "common/logging.hh"
#include "core/contract.hh"
#include "core/experiment.hh"
#include "gpu/gpu_config.hh"
#include "isa/asm.hh"
#include "isa/bytecode.hh"
#include "workload/kernel_builder.hh"

#include "random_kernel.hh"

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

bool
rejectedFor(const analysis::Verdict &verdict,
            analysis::RejectReason reason)
{
    if (verdict.admitted)
        return false;
    for (const auto &rej : verdict.rejections)
        if (rej.reason == reason)
            return true;
    return false;
}

std::string
describe(const analysis::Verdict &verdict)
{
    std::string out;
    for (const auto &rej : verdict.rejections)
        out += rej.toString() + "\n";
    return out;
}

} // namespace

namespace
{

// The whole suite must be admitted; split by index parity so each
// half stays well inside the per-test ctest timeout under sanitizers
// (abstract loop peeling makes suite-kernel verification expensive).
void
admitsSuiteHalf(std::size_t parity)
{
    const auto &suite = workload::evaluationSuite();
    int checked = 0;
    for (std::size_t i = parity; i < suite.size(); i += 2) {
        const auto &spec = suite[i];
        const isa::Program program = workload::buildProgram(spec);
        const auto verdict = analysis::verifyProgram(program);
        ASSERT_TRUE(verdict.admitted)
            << spec.abbr << ":\n" << describe(verdict);
        EXPECT_GT(verdict.certificate.warpTripBound, 0u) << spec.abbr;
        ++checked;
    }
    EXPECT_EQ(checked, static_cast<int>((suite.size() + 1 - parity) / 2));
}

} // namespace

TEST(Verifier, AdmitsEverySuiteKernelFirstHalf)
{
    admitsSuiteHalf(0);
}

TEST(Verifier, AdmitsEverySuiteKernelSecondHalf)
{
    admitsSuiteHalf(1);
}

// One test per sampled app: simulation under ASan is slow enough that
// bundling them risks the per-test ctest timeout.
void suiteKernelRunsInsideItsCertificate(const std::string &abbr)
{
    const core::ExperimentDriver driver(gpu::baselineConfig());
    int checked = 0;
    for (const auto &spec : workload::evaluationSuite()) {
        if (spec.abbr != abbr)
            continue;
        const isa::Program program = workload::buildProgram(spec);
        const auto verdict = analysis::verifyProgram(program);
        ASSERT_TRUE(verdict.admitted) << spec.abbr;

        core::ContractProbe probe(verdict.certificate);
        core::RunOptions options;
        options.probe = &probe;
        auto run = driver.runProgramChecked(program, options);
        ASSERT_TRUE(run.ok())
            << spec.abbr << ": " << run.error().message;
        EXPECT_GT(probe.maxIssued(), 0u) << spec.abbr;
        EXPECT_LE(probe.maxIssued(), verdict.certificate.warpTripBound)
            << spec.abbr;
        ++checked;
    }
    EXPECT_EQ(checked, 1);
}

TEST(Verifier, BckRunsInsideItsCertificate)
{
    suiteKernelRunsInsideItsCertificate("BCK");
}

TEST(Verifier, BfsRunsInsideItsCertificate)
{
    suiteKernelRunsInsideItsCertificate("BFS");
}

TEST(Verifier, KmnRunsInsideItsCertificate)
{
    suiteKernelRunsInsideItsCertificate("KMN");
}

TEST(Verifier, NonTerminatingLoopIsBudgetExceeded)
{
    const isa::Program program = mustParse(".kernel nonterm\n"
                                           ".launch 1 32\n"
                                           "L0:\n"
                                           "    BRA L0, join=L1\n"
                                           "L1:\n"
                                           "    EXIT\n");
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    EXPECT_TRUE(
        rejectedFor(verdict, analysis::RejectReason::BudgetExceeded))
        << describe(verdict);
}

TEST(Verifier, DataDependentBackwardBranchIsBudgetExceeded)
{
    // The loop bound is loaded from a lane-divergent address whose
    // image values span [1, 1000000]: either the guard stays unknown
    // (unknown backward branch) or peeling a million abstract
    // iterations exhausts the step budget. Both must reject as
    // budget-exceeded -- the bound is not provable within budget.
    const isa::Program program = mustParse(".kernel datadep\n"
                                           ".launch 1 32\n"
                                           ".global 2\n"
                                           ".data global 0 1 1000000\n"
                                           "    S2R R1, SR_TIDX\n"
                                           "    AND R2, R1, #1\n"
                                           "    SHL R2, R2, #2\n"
                                           "    MOV R3, #1\n"
                                           "    SHL R3, R3, #16\n"
                                           "    IADD R3, R3, R2\n"
                                           "    LDG R4, [R3 + 0]\n"
                                           "    MOV R5, #0\n"
                                           "Lloop:\n"
                                           "    IADD R5, R5, #1\n"
                                           "    SETP.LT P1, R5, R4\n"
                                           "    @P1 BRA Lloop, join=Ld\n"
                                           "Ld:\n"
                                           "    EXIT\n");
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    EXPECT_TRUE(
        rejectedFor(verdict, analysis::RejectReason::BudgetExceeded))
        << describe(verdict);
}

TEST(Verifier, UninitializedReadIsRejectedWithItsPc)
{
    const isa::Program program = mustParse(".kernel uninit\n"
                                           ".launch 1 32\n"
                                           "    IADD R2, R3, R4\n"
                                           "    EXIT\n");
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    ASSERT_TRUE(rejectedFor(verdict, analysis::RejectReason::UninitRead))
        << describe(verdict);
    bool sawPcZero = false;
    for (const auto &rej : verdict.rejections)
        sawPcZero |= rej.pc == 0;
    EXPECT_TRUE(sawPcZero) << describe(verdict);
}

TEST(Verifier, SharedStoreBeyondTheDeclaredSegmentIsOutOfBounds)
{
    const isa::Program program = mustParse(".kernel oob\n"
                                           ".launch 1 32\n"
                                           ".shared 64\n"
                                           "    MOV R2, #0\n"
                                           "    STS [R2 + 4096], R2\n"
                                           "    EXIT\n");
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    EXPECT_TRUE(
        rejectedFor(verdict, analysis::RejectReason::MemoryOutOfBounds))
        << describe(verdict);
}

TEST(Verifier, GlobalAccessOutsideTheImageIsOutOfBounds)
{
    // .global 4 declares 16 bytes at the segment base; byte 64 is out.
    const isa::Program program = mustParse(".kernel goob\n"
                                           ".launch 1 32\n"
                                           ".global 4\n"
                                           "    MOV R2, #1\n"
                                           "    SHL R2, R2, #16\n"
                                           "    LDG R3, [R2 + 64]\n"
                                           "    EXIT\n");
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    EXPECT_TRUE(
        rejectedFor(verdict, analysis::RejectReason::MemoryOutOfBounds))
        << describe(verdict);
}

TEST(Verifier, FallingOffTheEndIsRejected)
{
    isa::Program program = mustParse(".kernel noexit\n"
                                     ".launch 1 32\n"
                                     "    MOV R2, #1\n"
                                     "    EXIT\n");
    program.body.pop_back(); // now ends without EXIT
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    EXPECT_TRUE(
        rejectedFor(verdict, analysis::RejectReason::FallsOffEnd))
        << describe(verdict);
}

TEST(Verifier, MalformedBranchTargetIsRejected)
{
    isa::Program program = mustParse(".kernel badbra\n"
                                     ".launch 1 32\n"
                                     "    MOV R2, #1\n"
                                     "    EXIT\n");
    isa::Instruction bra;
    bra.op = isa::Opcode::Bra;
    bra.imm = 99; // far outside the body
    bra.reconv = 1;
    program.body.insert(program.body.begin() + 1, bra);
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    EXPECT_TRUE(rejectedFor(verdict, analysis::RejectReason::BadBranch))
        << describe(verdict);
}

TEST(Verifier, PtSentinelGuardIsMalformed)
{
    isa::Program program = mustParse(".kernel pt\n"
                                     ".launch 1 32\n"
                                     "    MOV R2, #1\n"
                                     "    EXIT\n");
    program.body[0].predNegate = true; // "@!P0": p0 is the PT sentinel
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    ASSERT_EQ(verdict.rejections.size(), 1u) << describe(verdict);
    EXPECT_EQ(verdict.rejections.front().toString(),
              "pc 0: malformed-instruction: guard reads the PT sentinel "
              "predicate (p0 with negate)");
}

TEST(Verifier, StructuralAndUninitRejectionsAreTheLintersFindings)
{
    // One malformed field or uninitialized read per kernel: each lint
    // finding of a shared rule comes back as a rejection with the same
    // pc and message, under the reason its code maps to.
    const isa::Program base = mustParse(".kernel shared-rules\n"
                                        ".launch 1 32\n"
                                        "    S2R R1, SR_LANEID\n"
                                        "    SETP.LT P1, R1, #16\n"
                                        "    @P1 BRA L4, join=L4\n"
                                        "    IADD R2, R1, R1\n"
                                        "L4:\n"
                                        "    EXIT\n");
    std::vector<isa::Program> programs(5, base);
    programs[0].body[1].flags = 7;      // non-canonical
    programs[1].body[2].reconv = 1;     // bad reconvergence point
    programs[2].body[3].srcB = 70;      // out-of-range register
    programs[3].body[2].pred = 2;       // guard no SetP wrote
    programs[4].body[3].srcB = 3;       // r3 read before any write

    const auto reasonOf = [](analysis::LintCode code) {
        switch (code) {
          case analysis::LintCode::NonCanonical:
            return analysis::RejectReason::MalformedInstruction;
          case analysis::LintCode::BadReconv:
            return analysis::RejectReason::BadBranch;
          default:
            return analysis::RejectReason::UninitRead;
        }
    };
    for (std::size_t k = 0; k < programs.size(); ++k) {
        std::vector<analysis::Rejection> expected;
        for (const auto &f : analysis::lintProgram(programs[k])) {
            if (f.code == analysis::LintCode::NonCanonical
                || f.code == analysis::LintCode::BadReconv
                || f.code == analysis::LintCode::UninitRegRead
                || f.code == analysis::LintCode::UninitPredRead)
                expected.push_back({reasonOf(f.code), f.pc, f.message});
        }
        ASSERT_FALSE(expected.empty()) << "kernel " << k;
        const auto verdict = analysis::verifyProgram(programs[k]);
        ASSERT_EQ(verdict.rejections.size(), expected.size())
            << "kernel " << k << ":\n" << describe(verdict);
        for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(verdict.rejections[i].toString(),
                      expected[i].toString())
                << "kernel " << k;
        }
    }
}

TEST(Verifier, OverSizedLaunchGeometryIsRejected)
{
    isa::Program program = mustParse(".kernel badlaunch\n"
                                     ".launch 1 32\n"
                                     "    EXIT\n");
    program.launch.blockThreads = 4096;
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    EXPECT_TRUE(rejectedFor(verdict, analysis::RejectReason::BadLaunch))
        << describe(verdict);
}

TEST(Verifier, ResourceCapsAreEnforced)
{
    isa::Program program = mustParse(".kernel big\n"
                                     ".launch 1 32\n"
                                     "    EXIT\n");
    program.sharedBytesPerBlock = 1u << 20;
    const auto verdict = analysis::verifyProgram(program);
    ASSERT_FALSE(verdict.admitted);
    EXPECT_TRUE(
        rejectedFor(verdict, analysis::RejectReason::ResourceLimit))
        << describe(verdict);
}

TEST(Verifier, RejectionNamesAreStableAndKebabCase)
{
    for (int i = 0; i < analysis::kNumRejectReasons; ++i) {
        const std::string name = analysis::rejectReasonName(
            static_cast<analysis::RejectReason>(i));
        EXPECT_FALSE(name.empty()) << i;
        for (const char c : name)
            EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '-')
                << name << " has '" << c << "'";
    }
    EXPECT_EQ(analysis::rejectReasonName(
                  analysis::RejectReason::BudgetExceeded),
              "budget-exceeded");
}


namespace {

// One shard of the 1000-kernel soundness property. Sharded so each
// piece stays well inside the per-test ctest timeout under ASan.
void randomKernelProperty(std::uint64_t seed, int count,
                          int minAdmitted, int minRejected)
{
    const core::ExperimentDriver driver(gpu::baselineConfig());
    Rng rng(seed);
    int admitted = 0;
    int rejected = 0;

    for (int k = 0; k < count; ++k) {
        const std::string text = tests::randomKernelAsm(rng);
        auto parsed = isa::parseAsm(text);
        ASSERT_TRUE(parsed.ok())
            << "kernel " << k << ": " << parsed.error().message
            << "\n" << text;

        // The bytecode layer must round-trip whatever the generator
        // produced before admission even starts.
        const std::string bytes = isa::encodeProgram(parsed.value());
        auto decoded = isa::decodeProgram(bytes);
        ASSERT_TRUE(decoded.ok()) << "kernel " << k;
        ASSERT_EQ(isa::encodeProgram(decoded.value()), bytes)
            << "kernel " << k;

        const auto verdict = analysis::verifyProgram(decoded.value());
        if (!verdict.admitted) {
            ++rejected;
            ASSERT_FALSE(verdict.rejections.empty()) << "kernel " << k;
            continue;
        }
        ++admitted;

        // Soundness: the machine must stay inside the certificate. A
        // ContractProbe violation fatal()s, which runProgramChecked
        // reports as a structured error -- so ok() is the property.
        core::ContractProbe probe(verdict.certificate);
        core::RunOptions options;
        options.probe = &probe;
        auto run = driver.runProgramChecked(decoded.value(), options);
        ASSERT_TRUE(run.ok()) << "kernel " << k << ": "
                              << run.error().message << "\n" << text;
        EXPECT_LE(probe.maxIssued(), verdict.certificate.warpTripBound)
            << "kernel " << k;
        EXPECT_GT(probe.maxIssued(), 0u) << "kernel " << k;
    }

    // The generator is biased toward admissible kernels with a seeded
    // hostile minority; both populations must actually show up.
    EXPECT_GE(admitted, minAdmitted)
        << "generator drift: rejected=" << rejected;
    EXPECT_GE(rejected, minRejected)
        << "generator drift: admitted=" << admitted;
}

} // namespace

// 4 x 250 = 1000 random kernels total, distinct seed per shard.
TEST(Verifier, RandomKernelsNeverEscapeTheirCertificatesShard0)
{
    randomKernelProperty(0xb1f0001u, 250, 125, 25);
}

TEST(Verifier, RandomKernelsNeverEscapeTheirCertificatesShard1)
{
    randomKernelProperty(0xb1f0002u, 250, 125, 25);
}

TEST(Verifier, RandomKernelsNeverEscapeTheirCertificatesShard2)
{
    randomKernelProperty(0xb1f0003u, 250, 125, 25);
}

TEST(Verifier, RandomKernelsNeverEscapeTheirCertificatesShard3)
{
    randomKernelProperty(0xb1f0004u, 250, 125, 25);
}
