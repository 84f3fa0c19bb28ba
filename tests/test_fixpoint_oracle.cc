/**
 * @file
 * Differential oracle for the abstract interpreter's fixpoint.
 *
 * analyzeProgram joins states in place and skips registers whose two
 * sides are equal. referenceAnalyze below is the straightforward
 * fixpoint it replaced -- a fresh joined state per edge, compared
 * whole -- kept verbatim apart from the step counter. Both must agree
 * on every field of every state, the memory summaries, regAnywhere,
 * the divergent regions, fellOffEnd and the step count, over the 58
 * suite kernels, 3000 seeded random kernels and the checked-in parser
 * corpora. Each suite kernel's step count is also pinned
 * (analysis_pins.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/interpreter.hh"
#include "analysis_pins.hh"
#include "common/rng.hh"
#include "isa/asm.hh"
#include "isa/bytecode.hh"
#include "kernel_shards.hh"
#include "random_kernel.hh"
#include "workload/app_spec.hh"
#include "workload/kernel_builder.hh"

namespace bvf::analysis
{
namespace
{

using isa::Instruction;
using isa::Opcode;

namespace reference
{

std::size_t
regIndex(std::uint8_t r)
{
    return r % isa::numRegisters;
}

std::size_t
predIndex(std::uint8_t p)
{
    return p % isa::numPredicates;
}

/** Interval-join count per pc before the intervals widen to top. */
constexpr int widenThreshold = 256;

/** Outer load/store iterations before memory summaries widen to top. */
constexpr int memoryIterations = 8;

AbsState
initialState()
{
    AbsState s;
    s.regs.fill(AbsValue::constant(0));
    s.preds.fill(PredValue{Bool3::False, Uniformity::Uniform});
    s.regWritten = 0;
    s.predWritten = 0;
    s.reachable = true;
    return s;
}

bool
sameState(const AbsState &a, const AbsState &b)
{
    return a.reachable == b.reachable && a.regWritten == b.regWritten
           && a.predWritten == b.predWritten && a.regs == b.regs
           && a.preds == b.preds;
}

/**
 * Join @p next into @p into. With @p doWiden, any component still
 * growing is widened per the domain's own rule (see product.hh) so
 * loops terminate; finite-height components pass through.
 */
AbsState
joinState(const AbsState &into, const AbsState &next, bool doWiden)
{
    AbsState r;
    r.reachable = true;
    r.regWritten = into.regWritten & next.regWritten;
    r.predWritten = into.predWritten & next.predWritten;
    for (int i = 0; i < isa::numRegisters; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        AbsValue j = join(into.regs[idx], next.regs[idx]);
        if (doWiden)
            j = widen(into.regs[idx], j);
        r.regs[idx] = j;
    }
    for (int i = 0; i < isa::numPredicates; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        r.preds[idx] = join(into.preds[idx], next.preds[idx]);
    }
    return r;
}

KnownBits
joinImage(const std::vector<Word> &image)
{
    KnownBits kb = KnownBits::constant(image.empty() ? 0 : image.front());
    for (Word w : image)
        kb = join(kb, KnownBits::constant(w));
    return kb;
}

struct Successor
{
    int pc;
    AbsState state;
};

/**
 * One abstract instruction step: returns the successor program points
 * with their OUT states and reports stored values / written results to
 * the caller (for the memory fixpoint and regAnywhere accumulation).
 */
class Stepper
{
  public:
    Stepper(const isa::Program &program, const MemorySummaries &memory,
            const std::vector<std::uint8_t> &divergentRegion)
        : program_(program), memory_(memory),
          divergentRegion_(divergentRegion)
    {
    }

    /** Joined abstraction of every value stored by Stg this pass. */
    const KnownBits &storedGlobal() const { return storedGlobal_; }
    bool anyGlobalStore() const { return anyGlobalStore_; }

    /** Joined abstraction of every value stored by Sts this pass. */
    const KnownBits &storedShared() const { return storedShared_; }
    bool anySharedStore() const { return anySharedStore_; }

    /** Join of every register-write result, indexed by register. */
    const std::array<KnownBits, isa::numRegisters> &written() const
    {
        return written_;
    }
    std::uint64_t writtenMask() const { return writtenMask_; }

    std::vector<Successor> step(int pc, const AbsState &in);

  private:
    void
    noteWrite(int reg, const KnownBits &value)
    {
        const auto idx = static_cast<std::size_t>(reg);
        written_[idx] = (writtenMask_ >> reg) & 1u
                            ? join(written_[idx], value)
                            : value;
        writtenMask_ |= std::uint64_t(1) << reg;
    }

    const isa::Program &program_;
    const MemorySummaries &memory_;
    const std::vector<std::uint8_t> &divergentRegion_;
    KnownBits storedGlobal_;
    KnownBits storedShared_;
    bool anyGlobalStore_ = false;
    bool anySharedStore_ = false;
    std::array<KnownBits, isa::numRegisters> written_{};
    std::uint64_t writtenMask_ = 0;
};

std::vector<Successor>
Stepper::step(int pc, const AbsState &in)
{
    const Instruction &instr = program_.body[static_cast<std::size_t>(pc)];
    const Bool3 guard = guardValue(in, instr);

    switch (instr.op) {
      case Opcode::Exit:
        // The SM retires the warp regardless of the guard predicate.
        return {};
      case Opcode::Bar:
      case Opcode::Nop:
        return {{pc + 1, in}};
      case Opcode::Bra: {
        std::vector<Successor> succs;
        if (guard != Bool3::False)
            succs.push_back({instr.imm, in});
        if (guard != Bool3::True)
            succs.push_back({pc + 1, in});
        return succs;
      }
      default:
        break;
    }

    if (guard == Bool3::False)
        return {{pc + 1, in}};

    AbsState out = in;
    const bool certain = guard == Bool3::True;

    // Whole-warp write: when this instruction executes at all, every
    // lane of the warp executes it. Requires a lane-uniform guard and a
    // pc no divergent branch region covers; only such writes may keep
    // lane-affine facts or predicate uniformity.
    const bool wholeWarp =
        !divergentRegion_[static_cast<std::size_t>(pc)]
        && guardUniformity(in, instr) == Uniformity::Uniform;

    if (instr.op == Opcode::SetP) {
        const isa::CmpOp cmp = static_cast<isa::CmpOp>(instr.flags);
        Bool3 v = kbCompare(cmp, operandA(in, instr), operandB(in, instr));
        if (v == Bool3::Unknown) {
            const SignedInterval &sa = in.regs[regIndex(instr.srcA)].si();
            const SignedInterval sb =
                instr.immB
                    ? SignedInterval::constant(static_cast<Word>(instr.imm))
                    : in.regs[regIndex(instr.srcB)].si();
            v = siCompare(cmp, sa, sb);
        }
        const bool lanesAgree =
            in.regs[regIndex(instr.srcA)].affine().isUniform()
            && (instr.immB
                || in.regs[regIndex(instr.srcB)].affine().isUniform());
        const Uniformity uni = wholeWarp && lanesAgree
                                   ? Uniformity::Uniform
                                   : Uniformity::MayDiverge;
        const std::size_t idx = predIndex(instr.dst);
        if (certain) {
            out.preds[idx] = {v, uni};
            out.predWritten |= static_cast<std::uint8_t>(1u << idx);
        } else {
            out.preds[idx].value = join(in.preds[idx].value, v);
            out.preds[idx].uni = wholeWarp ? join(in.preds[idx].uni, uni)
                                           : Uniformity::MayDiverge;
        }
        return {{pc + 1, out}};
    }

    if (isa::isStoreOp(instr.op)) {
        const KnownBits value = in.regs[regIndex(instr.srcB)].kb();
        if (instr.op == Opcode::Stg) {
            storedGlobal_ = anyGlobalStore_ ? join(storedGlobal_, value)
                                            : value;
            anyGlobalStore_ = true;
        } else {
            storedShared_ = anySharedStore_ ? join(storedShared_, value)
                                            : value;
            anySharedStore_ = true;
        }
        return {{pc + 1, out}};
    }

    // Register-writing instructions (ALU ops and loads).
    AbsValue result = isa::isLoadOp(instr.op)
                          ? loadValue(instr, in, memory_)
                          : aluValue(instr, in, program_.launch);
    if (!wholeWarp) {
        // A partial-mask write leaves stale values in the sat-out
        // lanes; the vector is a mixture with no affine structure.
        result.affine() = LaneAffine::top();
    }
    const std::size_t idx = regIndex(instr.dst);
    out.regs[idx] = certain ? result : join(in.regs[idx], result);
    if (certain)
        out.regWritten |= std::uint64_t(1) << idx;
    noteWrite(static_cast<int>(idx), out.regs[idx].kb());
    return {{pc + 1, out}};
}

/**
 * Mark every pc a warp might execute with a partial mask after the
 * divergent branch at @p entry's arm: the syntactic CFG closure from
 * the arm entry, stopping (exclusively) at the reconvergence point,
 * where Warp::reconvergeIfNeeded restores the full mask before issue.
 * Out-of-range targets simply end the walk (the SM never issues them).
 * Returns whether any new pc was marked.
 */
bool
contaminate(std::vector<std::uint8_t> &region, const isa::Program &program,
            int entry, int reconv)
{
    const int size = static_cast<int>(program.body.size());
    bool grew = false;
    std::vector<int> stack{entry};
    while (!stack.empty()) {
        const int pc = stack.back();
        stack.pop_back();
        if (pc < 0 || pc >= size || pc == reconv)
            continue;
        auto &mark = region[static_cast<std::size_t>(pc)];
        if (mark)
            continue;
        mark = 1;
        grew = true;
        const Instruction &instr = program.body[static_cast<std::size_t>(pc)];
        if (instr.op == Opcode::Exit)
            continue;
        if (instr.op == Opcode::Bra) {
            stack.push_back(instr.imm);
            // An unconditional branch never falls through.
            if (instr.pred != isa::predTrue || instr.predNegate)
                stack.push_back(pc + 1);
            continue;
        }
        stack.push_back(pc + 1);
    }
    return grew;
}

/** The whole-state-join fixpoint analyzeProgram must reproduce. */
AnalysisResult
referenceAnalyze(const isa::Program &program)
{
    AnalysisResult result;
    const int size = static_cast<int>(program.body.size());
    result.in.assign(static_cast<std::size_t>(size), AbsState{});
    result.regAnywhere.fill(KnownBits::constant(0));
    result.divergentRegion.assign(static_cast<std::size_t>(size), 0);
    if (size == 0) {
        result.fellOffEnd = true;
        return result;
    }

    // Summaries without store feedback: image words plus the zero every
    // out-of-range or uninitialized location yields.
    MemorySummaries base;
    base.global = join(joinImage(program.global), KnownBits::constant(0));
    base.shared = KnownBits::constant(0);
    base.constant = joinImage(program.constants);
    base.texture = joinImage(program.texture);

    // Outer divergence fixpoint: run the whole analysis, find branches
    // that can split a warp, grow the divergent-region set, repeat. The
    // set only grows (and only weakens lane facts, never per-thread
    // ones), so the loop terminates within |body| rounds.
    std::vector<std::uint8_t> region(static_cast<std::size_t>(size), 0);
    for (;;) {
        result.regAnywhere.fill(KnownBits::constant(0));
        MemorySummaries memory = base;
        for (int iter = 0;; ++iter) {
            Stepper stepper(program, memory, region);

            for (AbsState &s : result.in)
                s = AbsState{};
            result.in[0] = initialState();
            result.fellOffEnd = false;

            std::vector<int> updates(static_cast<std::size_t>(size), 0);
            std::deque<int> worklist{0};
            std::vector<bool> queued(static_cast<std::size_t>(size), false);
            queued[0] = true;
            while (!worklist.empty()) {
                const int pc = worklist.front();
                worklist.pop_front();
                ++result.steps;
                queued[static_cast<std::size_t>(pc)] = false;

                const AbsState in = result.in[static_cast<std::size_t>(pc)];
                for (const Successor &succ : stepper.step(pc, in)) {
                    if (succ.pc < 0 || succ.pc >= size) {
                        result.fellOffEnd = true;
                        continue;
                    }
                    const auto sidx = static_cast<std::size_t>(succ.pc);
                    AbsState &old = result.in[sidx];
                    AbsState merged =
                        old.reachable
                            ? joinState(old, succ.state,
                                        updates[sidx] >= widenThreshold)
                            : succ.state;
                    merged.reachable = true;
                    if (!old.reachable || !sameState(merged, old)) {
                        old = merged;
                        ++updates[sidx];
                        if (!queued[sidx]) {
                            queued[sidx] = true;
                            worklist.push_back(succ.pc);
                        }
                    }
                }
            }

            // Feed stored values back into the load summaries.
            MemorySummaries next = base;
            if (stepper.anyGlobalStore())
                next.global = join(next.global, stepper.storedGlobal());
            if (stepper.anySharedStore())
                next.shared = join(next.shared, stepper.storedShared());
            // Monotone ascent so the outer loop cannot oscillate.
            next.global = join(next.global, memory.global);
            next.shared = join(next.shared, memory.shared);

            if (next == memory) {
                for (int r = 0; r < isa::numRegisters; ++r) {
                    const auto idx = static_cast<std::size_t>(r);
                    for (const AbsState &s : result.in) {
                        if (s.reachable)
                            result.regAnywhere[idx] =
                                join(result.regAnywhere[idx],
                                     s.regs[idx].kb());
                    }
                    if ((stepper.writtenMask() >> r) & 1u) {
                        result.regAnywhere[idx] =
                            join(result.regAnywhere[idx],
                                 stepper.written()[idx]);
                    }
                }
                result.memory = memory;
                break;
            }
            memory = iter < memoryIterations
                         ? next
                         : MemorySummaries{KnownBits::top(),
                                           KnownBits::top(),
                                           next.constant, next.texture};
        }

        // Find branches whose guard is both unknown and possibly
        // non-uniform: only those can split a warp.
        bool grew = false;
        for (int pc = 0; pc < size; ++pc) {
            const auto idx = static_cast<std::size_t>(pc);
            const Instruction &instr = program.body[idx];
            if (instr.op != Opcode::Bra || !result.in[idx].reachable)
                continue;
            if (guardValue(result.in[idx], instr) != Bool3::Unknown)
                continue;
            if (guardUniformity(result.in[idx], instr)
                == Uniformity::Uniform)
                continue;
            grew |= contaminate(region, program, pc + 1, instr.reconv);
            grew |= contaminate(region, program, instr.imm, instr.reconv);
        }
        if (!grew) {
            result.divergentRegion = region;
            return result;
        }
    }
}

} // namespace reference

/** Assert @p got equals @p want field by field, naming the first gap. */
void
expectSameAnalysis(const AnalysisResult &want, const AnalysisResult &got,
                   const std::string &label)
{
    ASSERT_EQ(got.in.size(), want.in.size()) << label;
    for (std::size_t pc = 0; pc < want.in.size(); ++pc) {
        const AbsState &w = want.in[pc];
        const AbsState &g = got.in[pc];
        ASSERT_EQ(g.reachable, w.reachable) << label << " pc " << pc;
        ASSERT_EQ(g.regWritten, w.regWritten) << label << " pc " << pc;
        ASSERT_EQ(g.predWritten, w.predWritten) << label << " pc " << pc;
        for (std::size_t r = 0; r < w.regs.size(); ++r) {
            ASSERT_TRUE(g.regs[r] == w.regs[r])
                << label << " pc " << pc << " R" << r << ": "
                << g.regs[r].kb().toString() << " "
                << g.regs[r].si().toString() << " "
                << g.regs[r].affine().toString() << ", reference "
                << w.regs[r].kb().toString() << " "
                << w.regs[r].si().toString() << " "
                << w.regs[r].affine().toString();
        }
        for (std::size_t p = 0; p < w.preds.size(); ++p)
            ASSERT_TRUE(g.preds[p] == w.preds[p])
                << label << " pc " << pc << " P" << p;
    }
    ASSERT_TRUE(got.memory == want.memory) << label;
    for (std::size_t r = 0; r < want.regAnywhere.size(); ++r)
        ASSERT_TRUE(got.regAnywhere[r] == want.regAnywhere[r])
            << label << " regAnywhere R" << r << ": "
            << got.regAnywhere[r].toString() << ", reference "
            << want.regAnywhere[r].toString();
    ASSERT_EQ(got.divergentRegion, want.divergentRegion) << label;
    ASSERT_EQ(got.fellOffEnd, want.fellOffEnd) << label;
    ASSERT_EQ(got.steps, want.steps) << label;
}

void
expectMatchesReference(const isa::Program &program, const std::string &label)
{
    expectSameAnalysis(reference::referenceAnalyze(program),
                       analyzeProgram(program), label);
}

// --- the 58 suite kernels, one entry each --------------------------------

class FixpointOracleSuite : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FixpointOracleSuite, MatchesTheReferenceFixpoint)
{
    const workload::AppSpec &spec = workload::evaluationSuite()[GetParam()];
    const tests::AppSteps &pin = tests::kAppAnalysisSteps[GetParam()];
    ASSERT_EQ(spec.abbr, pin.abbr);
    const isa::Program program = workload::buildProgram(spec);
    const AnalysisResult result = analyzeProgram(program);
    expectSameAnalysis(reference::referenceAnalyze(program), result,
                       spec.abbr);
    EXPECT_EQ(result.steps, pin.steps) << spec.abbr;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, FixpointOracleSuite,
    ::testing::Range<std::size_t>(0, tests::kAppAnalysisSteps.size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return workload::evaluationSuite()[info.param].abbr;
    });

// --- 3000 seeded random kernels --------------------------------------------

class FixpointOracleRandom
    : public ::testing::TestWithParam<tests::KernelShard>
{
};

TEST_P(FixpointOracleRandom, MatchesTheReferenceFixpoint)
{
    Rng rng(0xf1c5d0a1u);
    for (int k = 0; k < GetParam().end; ++k) {
        const std::string text = tests::randomKernelAsm(rng);
        if (k < GetParam().begin)
            continue;
        auto parsed = isa::parseAsm(text);
        ASSERT_TRUE(parsed.ok()) << "kernel " << k << ": "
                                 << parsed.error().message;
        expectMatchesReference(parsed.value(),
                               "kernel " + std::to_string(k));
        if (HasFatalFailure())
            return;
    }
}

// 3000 kernels from one stream, in 30 entries: under TSan a kernel
// takes about 0.4 s, so each entry stays well inside the 120 s timeout.
INSTANTIATE_TEST_SUITE_P(Shards, FixpointOracleRandom,
                         ::testing::ValuesIn(tests::kernelShards(3000, 30)),
                         tests::kernelShardName);

// --- every corpus input that parses or decodes -------------------------------

std::vector<std::filesystem::path>
corpusFiles(const char *target)
{
    std::vector<std::filesystem::path> files;
    const std::filesystem::path dir =
        std::filesystem::path(BVF_CORPUS_DIR) / target;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(FixpointOracle, MatchesTheReferenceOnEveryCorpusProgram)
{
    int programs = 0;
    for (const char *target : {"asm", "bytecode", "opt"}) {
        const bool text = std::string(target) == "asm";
        for (const auto &path : corpusFiles(target)) {
            const std::string bytes = readFile(path);
            auto program = text ? isa::parseAsm(bytes)
                                : isa::decodeProgram(bytes);
            if (!program.ok())
                continue;
            ++programs;
            expectMatchesReference(program.value(), path.string());
        }
    }
    EXPECT_GT(programs, 0) << "no corpus input parsed or decoded";
}

} // namespace
} // namespace bvf::analysis
