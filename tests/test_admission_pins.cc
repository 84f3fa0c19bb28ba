/**
 * @file
 * Exactness pins for admission and lint (admission_pins.hh). Each pin
 * is the CRC-32 of one program's whole Admission -- verdict, every
 * rejection's reason, pc and message, every Certificate field and the
 * fixpoint's step count -- and of its lint findings (code, pc,
 * message). The programs: the 58 suite kernels, the 1000 random
 * kernels test_verifier draws, every corpus input that parses or
 * decodes, and field-mutated programs built here.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/lint.hh"
#include "analysis/verifier.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "isa/asm.hh"
#include "workload/kernel_builder.hh"

#include "admission_pins.hh"
#include "corpus_programs.hh"
#include "random_kernel.hh"

using namespace bvf;
using namespace bvf::analysis;

namespace
{

std::uint32_t
crcOf(const std::string &text)
{
    return crc32(text.data(), text.size());
}

std::string
renderFootprint(const FootprintBounds &fp)
{
    return strFormat(" %d:%u:%u", int(fp.accessed), fp.lo, fp.hi);
}

/** Every field admitProgram returns, in one canonical string. */
std::string
renderAdmission(const Admission &admission)
{
    const Verdict &verdict = admission.verdict;
    std::string out = strFormat("admitted %d\n", int(verdict.admitted));
    for (const Rejection &rej : verdict.rejections) {
        out += strFormat("reject %d %d %s\n", int(rej.reason), rej.pc,
                         rej.message.c_str());
    }
    const Certificate &cert = verdict.certificate;
    out += strFormat("certificate %llu %llu %d",
                     static_cast<unsigned long long>(cert.warpTripBound),
                     static_cast<unsigned long long>(cert.abstractSteps),
                     int(cert.uniformControlFlow));
    out += renderFootprint(cert.global) + renderFootprint(cert.shared)
           + renderFootprint(cert.constant) + renderFootprint(cert.texture);
    out += admission.analysis
               ? strFormat("\nfixpoint %llu\n",
                           static_cast<unsigned long long>(
                               admission.analysis->steps))
               : std::string("\nno fixpoint\n");
    return out;
}

std::string
renderLint(const std::vector<LintFinding> &findings)
{
    std::string out;
    for (const LintFinding &f : findings) {
        out += strFormat("%d %d %s\n", int(f.code), f.pc,
                         f.message.c_str());
    }
    return out;
}

/** Which codes and reasons a pinned population made fire. */
struct Fired
{
    std::set<RejectReason> reasons;
    std::set<LintCode> codes;
};

/**
 * The pin of @p program. The linter is not run on an unknown opcode
 * (its pin is 0): lintProgram's callers only hand it decoded kernels
 * the verifier admitted or suite kernels.
 */
tests::AdmissionPin
pinOf(const isa::Program &program, Fired *fired = nullptr)
{
    const Admission admission = admitProgram(program);
    tests::AdmissionPin pin{crcOf(renderAdmission(admission)), 0};
    if (fired) {
        for (const Rejection &rej : admission.verdict.rejections)
            fired->reasons.insert(rej.reason);
    }
    if (!tests::hasUnknownOpcode(program)) {
        const auto findings = lintProgram(program);
        pin.lint = crcOf(renderLint(findings));
        if (fired) {
            for (const LintFinding &f : findings)
                fired->codes.insert(f.code);
        }
    }
    return pin;
}

/**
 * Compare @p actual with its pin (null when none is recorded); on a
 * mismatch, name the program and its new pin.
 */
void
expectPin(const std::string &what, const tests::AdmissionPin *pinned,
          const tests::AdmissionPin &actual)
{
    const tests::AdmissionPin want = pinned ? *pinned : tests::AdmissionPin{};
    EXPECT_TRUE(want.admission == actual.admission && want.lint == actual.lint)
        << what << ": pinned {0x" << std::hex << want.admission << ", 0x"
        << want.lint << "}, got {0x" << actual.admission << ", 0x"
        << actual.lint << "}" << std::dec;
}

// --- field-mutated programs ------------------------------------------------

/** Every memory space, a counted loop, a divergent fork and a reduction. */
constexpr const char *kBaseSpaces = R"(.kernel pin-spaces
.launch 2 64
.shared 256
.global 64
.const 8
.texture 8
.data const 0 1 2 3 4 5 6 7 8
.data texture 0 0x10 0x20 0x30 0x40
    S2R R1, SR_TIDX
    AND R8, R1, #31
    SHL R8, R8, #2
    MOV R9, #1
    SHL R9, R9, #16
    IADD R9, R9, R8
    AND R7, R1, #7
    SHL R7, R7, #2
    LDC R2, [R7 + 0]
    LDT R3, [R7 + 4]
    STS [R8 + 0], R2
    BAR
    LDS R4, [R8 + 0]
    MOV R10, #0
Lloop:
    IADD R10, R10, #1
    IMAD R4, R2, R3
    SETP.LT P1, R10, #3
    @P1 BRA Lloop, join=Ldone
Ldone:
    SETP.NE P2, R1, #0
    @P2 BRA Lskip, join=Lskip
    FADD R5, R4, R3
    LDG R6, [R9 + 0]
    XOR R4, R4, R6
Lskip:
    STG [R9 + 0], R4
    EXIT
)";

/** A barrier in a divergent arm, a dead write and unreachable code. */
constexpr const char *kBaseDivergent = R"(.kernel pin-divergent
.launch 1 32
.shared 128
    S2R R1, SR_LANEID
    MOV R2, #5
    SETP.LT P1, R1, #16
    @P1 BRA Ljoin, join=Ljoin
    BAR
    SHL R3, R1, #2
    STS [R3 + 0], R1
Ljoin:
    @!P1 IADD R4, R1, #1
    EXIT
    NOP
)";

/** A loop whose trip count depends on loaded data. */
constexpr const char *kBaseDataLoop = R"(.kernel pin-data-loop
.launch 1 32
.global 4
.data global 0 1 1000000
    MOV R9, #1
    SHL R9, R9, #16
    LDG R2, [R9 + 4]
    MOV R3, #0
Ltop:
    IADD R3, R3, #1
    SETP.LT P1, R3, R2
    @P1 BRA Ltop, join=Lend
Lend:
    EXIT
)";

using FieldMutation = void (*)(isa::Instruction &);

/** Applied to every instruction of every base, one at a time. */
constexpr FieldMutation kFieldMutations[] = {
    [](isa::Instruction &i) { i.dst = 70; },
    [](isa::Instruction &i) { i.dst = 5; },
    [](isa::Instruction &i) { i.srcA = 70; },
    [](isa::Instruction &i) { i.srcA = 40; },
    [](isa::Instruction &i) {
        i.srcB = 70;
        i.immB = false;
    },
    [](isa::Instruction &i) { i.srcB = 41; },
    [](isa::Instruction &i) { i.pred = 6; },
    [](isa::Instruction &i) {
        i.pred = isa::predTrue;
        i.predNegate = true;
    },
    [](isa::Instruction &i) { i.pred = 3; },
    [](isa::Instruction &i) { i.immB = !i.immB; },
    [](isa::Instruction &i) { i.flags = 7; },
    [](isa::Instruction &i) { i.imm += 4; },
    [](isa::Instruction &i) { i.imm = 40000; },
    [](isa::Instruction &i) { i.imm = -3; },
    [](isa::Instruction &i) { i.reconv += 1; },
    [](isa::Instruction &i) { i.reconv = 0; },
    [](isa::Instruction &i) {
        i.op = static_cast<isa::Opcode>(
            static_cast<int>(isa::Opcode::NumOpcodes) + 7);
    },
    [](isa::Instruction &i) { i.op = isa::Opcode::Nop; },
    [](isa::Instruction &i) { i.op = isa::Opcode::Exit; },
    [](isa::Instruction &i) { i.op = isa::Opcode::Lds; },
};

using ProgramMutation = void (*)(isa::Program &);

/** Applied to every base once each. */
constexpr ProgramMutation kProgramMutations[] = {
    [](isa::Program &p) { p.sharedBytesPerBlock = 0; },
    [](isa::Program &p) { p.sharedBytesPerBlock = 4; },
    [](isa::Program &p) { p.sharedBytesPerBlock = 1u << 20; },
    [](isa::Program &p) { p.constants.clear(); },
    [](isa::Program &p) { p.constants.resize(1); },
    [](isa::Program &p) { p.texture.clear(); },
    [](isa::Program &p) { p.texture.resize(1); },
    [](isa::Program &p) { p.global.clear(); },
    [](isa::Program &p) { p.global.resize(1); },
    [](isa::Program &p) { p.launch.blockThreads = 0; },
    [](isa::Program &p) { p.launch.blockThreads = 4096; },
    [](isa::Program &p) { p.launch.gridBlocks = 0; },
    [](isa::Program &p) { p.launch.gridBlocks = 1 << 20; },
    [](isa::Program &p) { p.name.assign(300, 'k'); },
    [](isa::Program &p) { p.body.pop_back(); },
    [](isa::Program &p) { p.body.clear(); },
};

/** The bases, then each base's field mutants, then its program mutants. */
std::vector<isa::Program>
mutatedPrograms()
{
    std::vector<isa::Program> bases;
    for (const char *text : {kBaseSpaces, kBaseDivergent, kBaseDataLoop}) {
        auto parsed = isa::parseAsm(text);
        EXPECT_TRUE(parsed.ok()) << parsed.error().message;
        if (parsed.ok())
            bases.push_back(parsed.value());
    }

    std::vector<isa::Program> out = bases;
    for (const isa::Program &base : bases) {
        for (std::size_t pc = 0; pc < base.body.size(); ++pc) {
            for (FieldMutation mutate : kFieldMutations) {
                isa::Program p = base;
                mutate(p.body[pc]);
                if (!(p.body[pc] == base.body[pc]))
                    out.push_back(std::move(p));
            }
        }
        for (ProgramMutation mutate : kProgramMutations) {
            isa::Program p = base;
            mutate(p);
            out.push_back(std::move(p));
        }
    }
    return out;
}

} // namespace

TEST(AdmissionPins, SuiteKernels)
{
    const auto &suite = workload::evaluationSuite();
    const auto &pins = tests::kSuiteAdmissionPins;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const tests::AdmissionPin *pinned = nullptr;
        if (i < pins.size()) {
            EXPECT_EQ(suite[i].abbr, pins[i].name);
            pinned = &pins[i].pin;
        }
        expectPin("suite " + suite[i].abbr, pinned,
                  pinOf(workload::buildProgram(suite[i])));
    }
    EXPECT_EQ(suite.size(), pins.size());
}

TEST(AdmissionPins, RandomKernels)
{
    // test_verifier's four shards: 250 kernels from each seed.
    std::size_t k = 0;
    for (std::uint64_t seed = 0xb1f0001u; seed <= 0xb1f0004u; ++seed) {
        Rng rng(seed);
        for (int n = 0; n < 250; ++n, ++k) {
            auto parsed = isa::parseAsm(tests::randomKernelAsm(rng));
            ASSERT_TRUE(parsed.ok()) << "kernel " << k;
            const auto &pins = tests::kRandomAdmissionPins;
            expectPin("random " + std::to_string(k),
                      k < pins.size() ? &pins[k] : nullptr,
                      pinOf(parsed.value()));
        }
    }
    EXPECT_EQ(k, tests::kRandomAdmissionPins.size());
}

TEST(AdmissionPins, CorpusInputs)
{
    const auto programs = tests::corpusPrograms();
    const auto &pins = tests::kCorpusAdmissionPins;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const tests::AdmissionPin *pinned = nullptr;
        if (i < pins.size()) {
            EXPECT_EQ(programs[i].name, pins[i].name);
            pinned = &pins[i].pin;
        }
        expectPin("corpus " + programs[i].name, pinned,
                  pinOf(programs[i].program));
    }
    EXPECT_EQ(programs.size(), pins.size());
}

TEST(AdmissionPins, FieldMutants)
{
    const auto programs = mutatedPrograms();
    const auto &pins = tests::kMutantAdmissionPins;
    Fired fired;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        expectPin("mutant " + std::to_string(i),
                  i < pins.size() ? &pins[i] : nullptr,
                  pinOf(programs[i], &fired));
    }
    EXPECT_EQ(programs.size(), pins.size());

    // The mutants alone make every rule of both passes fire.
    for (int r = 0; r < kNumRejectReasons; ++r) {
        EXPECT_TRUE(fired.reasons.count(static_cast<RejectReason>(r)))
            << rejectReasonName(static_cast<RejectReason>(r));
    }
    for (int c = 0; c <= static_cast<int>(LintCode::FallsOffEnd); ++c) {
        EXPECT_TRUE(fired.codes.count(static_cast<LintCode>(c)))
            << lintCodeName(static_cast<LintCode>(c));
    }
}
