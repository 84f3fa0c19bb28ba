/**
 * @file
 * Lattice laws and end-to-end soundness of the analysis-v2 domains.
 *
 * Two layers of defense. The algebra layer checks the lattice laws
 * (commutativity, associativity, idempotence, top absorption) and the
 * containment-monotonicity of join for SignedInterval, LaneAffine and
 * the AbsValue product, plus soundness of the arithmetic transfers on
 * random concrete values. The machine layer is the property mirrored
 * from PR 3's known-bits check: run random canonical kernels on the
 * full simulator with an ExecProbe and require that every concrete
 * lane value observed at an issue lies inside the abstract facts the
 * interpreter proved for that program point -- per-thread interval
 * facts on every active lane, whole-warp lane-affine facts outside
 * divergent regions, and predicate value/uniformity facts.
 */

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "analysis/interpreter.hh"
#include "common/rng.hh"
#include "gpu/gpu.hh"
#include "gpu/sm.hh"
#include "isa/asm.hh"
#include "isa/semantics.hh"
#include "sram/access_sink.hh"

#include "kernel_shards.hh"

using namespace bvf;
using analysis::AbsValue;
using analysis::LaneAffine;
using analysis::SignedInterval;
using isa::CmpOp;
using isa::Instruction;
using isa::Opcode;
using isa::SpecialReg;

namespace
{

// --- random elements ---------------------------------------------------

SignedInterval
randomInterval(Rng &rng)
{
    switch (rng.nextBounded(4)) {
      case 0:
        return SignedInterval::top();
      case 1:
        return SignedInterval::constant(rng.nextU32());
      default: {
        auto a = static_cast<std::int32_t>(rng.nextU32());
        auto b = static_cast<std::int32_t>(rng.nextU32());
        if (a > b)
            std::swap(a, b);
        return SignedInterval::range(a, b);
      }
    }
}

LaneAffine
randomAffine(Rng &rng)
{
    switch (rng.nextBounded(3)) {
      case 0:
        return LaneAffine::top();
      case 1:
        return LaneAffine::uniform();
      default:
        return LaneAffine::strided(rng.nextU32());
    }
}

AbsValue
randomValue(Rng &rng)
{
    AbsValue v = AbsValue::top();
    v.si() = randomInterval(rng);
    v.affine() = randomAffine(rng);
    if (rng.nextBool(0.5)) {
        const Word known = rng.nextU32();
        const Word value = rng.nextU32();
        v.kb().knownZero = known & ~value;
        v.kb().knownOne = known & value;
        // Hand-built masks must be normalized to be lattice elements
        // (the interval and masks refine each other).
        v.kb() = v.kb().normalized();
    }
    return v;
}

/** A random concrete word inside @p s (rejection-free). */
Word
sample(Rng &rng, const SignedInterval &s)
{
    const auto lo = static_cast<std::int64_t>(s.slo);
    const auto hi = static_cast<std::int64_t>(s.shi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    const std::int64_t x =
        lo + static_cast<std::int64_t>(rng.nextU64() % span);
    return static_cast<Word>(static_cast<std::int32_t>(x));
}

} // namespace

// --- lattice laws ------------------------------------------------------

TEST(SignedIntervalTest, LatticeLaws)
{
    Rng rng(0x51a77ce5u);
    for (int i = 0; i < 2000; ++i) {
        const auto a = randomInterval(rng);
        const auto b = randomInterval(rng);
        const auto c = randomInterval(rng);
        EXPECT_EQ(join(a, b), join(b, a));
        EXPECT_EQ(join(a, join(b, c)), join(join(a, b), c));
        EXPECT_EQ(join(a, a), a);
        EXPECT_TRUE(join(a, SignedInterval::top()).isTop());
        // Join is an upper bound: everything in a or b stays inside.
        const Word va = sample(rng, a);
        const Word vb = sample(rng, b);
        EXPECT_TRUE(join(a, b).contains(va));
        EXPECT_TRUE(join(a, b).contains(vb));
        // Widening covers the join.
        const auto w = widen(a, join(a, b));
        EXPECT_TRUE(w.contains(va));
        EXPECT_TRUE(w.contains(vb));
    }
}

TEST(SignedIntervalTest, TransfersContainConcreteResults)
{
    Rng rng(0x7aa45fe4u);
    for (int i = 0; i < 5000; ++i) {
        const auto a = randomInterval(rng);
        const auto b = randomInterval(rng);
        const Word va = sample(rng, a);
        const Word vb = sample(rng, b);
        auto conc = [&](Opcode op) { return isa::evalAlu(op, va, vb, 0); };
        EXPECT_TRUE(siAdd(a, b).contains(conc(Opcode::IAdd)));
        EXPECT_TRUE(siSub(a, b).contains(conc(Opcode::ISub)));
        EXPECT_TRUE(siMul(a, b).contains(conc(Opcode::IMul)));
        EXPECT_TRUE(siMinSigned(a, b).contains(conc(Opcode::Min)));
        EXPECT_TRUE(siMaxSigned(a, b).contains(conc(Opcode::Max)));
    }
}

TEST(SignedIntervalTest, CompareNeverLies)
{
    Rng rng(0xc0fba5e5u);
    const CmpOp ops[] = {CmpOp::Lt, CmpOp::Le, CmpOp::Gt,
                         CmpOp::Ge, CmpOp::Eq, CmpOp::Ne};
    for (int i = 0; i < 5000; ++i) {
        const auto a = randomInterval(rng);
        const auto b = randomInterval(rng);
        const Word va = sample(rng, a);
        const Word vb = sample(rng, b);
        for (const CmpOp cmp : ops) {
            const bool truth = isa::evalCmp(cmp, va, vb);
            const analysis::Bool3 abstract = siCompare(cmp, a, b);
            if (abstract != analysis::Bool3::Unknown) {
                EXPECT_EQ(abstract == analysis::Bool3::True, truth)
                    << "cmp " << static_cast<int>(cmp) << " on "
                    << isa::asInt(va) << ", " << isa::asInt(vb) << " in "
                    << a.toString() << ", " << b.toString();
            }
        }
    }
}

TEST(LaneAffineTest, LatticeLawsAndTransfers)
{
    Rng rng(0xaff1be75u);
    for (int i = 0; i < 2000; ++i) {
        const auto a = randomAffine(rng);
        const auto b = randomAffine(rng);
        const auto c = randomAffine(rng);
        EXPECT_EQ(join(a, b), join(b, a));
        EXPECT_EQ(join(a, join(b, c)), join(join(a, b), c));
        EXPECT_EQ(join(a, a), a);
        EXPECT_FALSE(join(a, LaneAffine::top()).known);

        // Build concrete vectors satisfying a and b, then check the
        // transfer results against lanewise arithmetic.
        Word va[32], vb[32], sum[32], diff[32], scaled[32];
        const Word basea = rng.nextU32();
        const Word baseb = rng.nextU32();
        const Word sa = a.known ? a.stride : rng.nextU32();
        const Word sb = b.known ? b.stride : rng.nextU32();
        const Word k = rng.nextU32();
        for (Word l = 0; l < 32; ++l) {
            va[l] = basea + sa * l;
            vb[l] = baseb + sb * l;
            sum[l] = va[l] + vb[l];
            diff[l] = va[l] - vb[l];
            scaled[l] = va[l] * k;
        }
        EXPECT_TRUE(a.contains(va));
        // Top contains everything, so only non-top results can fail.
        EXPECT_TRUE(laAdd(a, b).contains(sum));
        EXPECT_TRUE(laSub(a, b).contains(diff));
        EXPECT_TRUE(laScale(a, k).contains(scaled));
    }
    // A genuinely non-affine vector must be rejected.
    Word crooked[32] = {};
    crooked[0] = 0;
    crooked[1] = 1;
    crooked[2] = 7;
    EXPECT_FALSE(LaneAffine::uniform().contains(crooked));
    EXPECT_FALSE(LaneAffine::strided(1).contains(crooked));
    EXPECT_TRUE(LaneAffine::top().contains(crooked));
}

TEST(ProductValueTest, LatticeLawsLiftPointwise)
{
    Rng rng(0x9a0dbeefu);
    for (int i = 0; i < 2000; ++i) {
        const AbsValue a = randomValue(rng);
        const AbsValue b = randomValue(rng);
        const AbsValue c = randomValue(rng);
        EXPECT_EQ(join(a, b), join(b, a));
        EXPECT_EQ(join(a, join(b, c)), join(join(a, b), c));
        EXPECT_EQ(join(a, a), a);
        const AbsValue t = AbsValue::top();
        EXPECT_EQ(join(a, t), t);
        // Constants contain themselves and join keeps them contained.
        const Word v = rng.nextU32();
        EXPECT_TRUE(AbsValue::constant(v).contains(v));
        EXPECT_TRUE(join(a, AbsValue::constant(v)).contains(v));
    }
}

TEST(ProductValueTest, ReduceNeverDropsConcreteValues)
{
    Rng rng(0x4ed0ce55u);
    for (int i = 0; i < 5000; ++i) {
        AbsValue a = randomValue(rng);
        // Pick a concrete witness consistent with both interval parts
        // when one exists; otherwise reduction may legitimately tighten
        // around an empty intersection we cannot witness.
        const Word v = sample(rng, a.si());
        if (!a.kb().contains(v))
            continue;
        const AbsValue r = analysis::reduceValue(a);
        EXPECT_TRUE(r.contains(v))
            << a.kb().toString() << " x " << a.si().toString();
    }
}

// --- end-to-end machine soundness --------------------------------------

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
s2r(std::uint8_t dst, SpecialReg sr)
{
    Instruction i;
    i.op = Opcode::S2R;
    i.dst = dst;
    i.flags = static_cast<std::uint8_t>(sr);
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
memOp(Opcode op, std::uint8_t dstOrData, std::uint8_t addr,
      std::int32_t offset)
{
    Instruction i;
    i.op = op;
    i.srcA = addr;
    i.imm = offset;
    if (isa::isStoreOp(op))
        i.srcB = dstOrData;
    else
        i.dst = dstOrData;
    return i;
}

Instruction
bra(std::int32_t target, std::int32_t reconv, std::uint8_t pred,
    bool negate)
{
    Instruction i;
    i.op = Opcode::Bra;
    i.imm = target;
    i.reconv = reconv;
    i.pred = pred;
    i.predNegate = negate;
    return i;
}

Instruction
exitInstr()
{
    Instruction i;
    i.op = Opcode::Exit;
    return i;
}

/**
 * Canonical random kernel, same register convention and instruction
 * vocabulary as PR 3's static-check property (r4 = tid, r5-r7/r13-r15
 * data, r8 global base, r10 shared offset, r11 const/tex offset, r12
 * loop counter) so the two properties stress the same program family
 * at different layers: that one checks proven density bounds against
 * the accountant, this one checks the abstract state itself against
 * concrete lane values.
 */
isa::Program
soundnessKernel(Rng &rng, int index)
{
    const std::uint8_t dst_pool[] = {5, 6, 7, 13, 14, 15};
    const std::uint8_t src_pool[] = {4, 5, 6, 7, 8, 10, 11, 13, 14, 15};
    auto dst = [&] { return dst_pool[rng.nextBounded(6)]; };
    auto src = [&] { return src_pool[rng.nextBounded(10)]; };

    std::vector<Instruction> body;
    body.push_back(s2r(4, SpecialReg::TidX));
    for (std::uint8_t r : {5, 6, 7, 13, 14, 15})
        body.push_back(
            movImm(r, static_cast<std::int32_t>(rng.nextBounded(16384))));
    body.push_back(movImm(8, 0x100));
    body.push_back(aluImm(Opcode::Shl, 8, 8, 8)); // global base 0x10000
    body.push_back(aluImm(Opcode::And, 10, 4, 0x1f));
    body.push_back(aluImm(Opcode::Shl, 10, 10, 2)); // shared 0..124
    body.push_back(aluImm(Opcode::And, 11, 4, 0xf));
    body.push_back(aluImm(Opcode::Shl, 11, 11, 2)); // const/tex 0..60

    auto random_instr = [&](std::uint8_t guard, bool negate) {
        static const Opcode binary[] = {
            Opcode::IAdd, Opcode::ISub, Opcode::IMul, Opcode::And,
            Opcode::Or,   Opcode::Xor,  Opcode::Min,  Opcode::Max,
        };
        static const Opcode fused[] = {Opcode::Fadd, Opcode::Fmul,
                                       Opcode::Ffma, Opcode::IMad};
        static const Opcode unary[] = {Opcode::Clz, Opcode::I2F,
                                       Opcode::F2I};
        Instruction i;
        switch (rng.nextBounded(11)) {
          case 0:
          case 1:
          case 2:
            i = alu(binary[rng.nextBounded(8)], dst(), src(), src());
            break;
          case 3:
            i = alu(fused[rng.nextBounded(4)], dst(), src(), src());
            break;
          case 4:
            i = aluImm(rng.nextBool(0.5) ? Opcode::Shl : Opcode::Shr,
                       dst(), src(),
                       static_cast<std::int32_t>(rng.nextBounded(32)));
            break;
          case 5:
            i = alu(unary[rng.nextBounded(3)], dst(), src(), 0);
            break;
          case 6:
            i = memOp(Opcode::Ldg, dst(), 8,
                      static_cast<std::int32_t>(rng.nextBounded(128)) * 4);
            break;
          case 7:
            i = memOp(Opcode::Stg, src(), 8,
                      static_cast<std::int32_t>(rng.nextBounded(64)) * 4);
            break;
          case 8:
            i = rng.nextBool(0.5) ? memOp(Opcode::Lds, dst(), 10, 0)
                                  : memOp(Opcode::Sts, src(), 10, 0);
            break;
          case 9:
            i = memOp(Opcode::Ldc, dst(), 11, 0);
            break;
          default:
            i = memOp(Opcode::Ldt, dst(), 11, 0);
            break;
        }
        i.pred = guard;
        i.predNegate = negate && guard != isa::predTrue;
        return i;
    };

    auto emit_straight = [&](int count) {
        std::uint8_t guard = isa::predTrue;
        bool negate = false;
        for (int k = 0; k < count; ++k) {
            if (rng.nextBool(0.2)) {
                guard = static_cast<std::uint8_t>(1 + rng.nextBounded(3));
                negate = rng.nextBool(0.5);
                body.push_back(setpImm(
                    guard, static_cast<CmpOp>(rng.nextBounded(6)), src(),
                    static_cast<std::int32_t>(rng.nextBounded(64))));
            }
            body.push_back(random_instr(guard, negate));
        }
    };

    emit_straight(static_cast<int>(rng.nextBounded(4)));

    if (rng.nextBool(0.5)) {
        // Forward branch: if (!)p1, skip a short run of instructions.
        body.push_back(setpImm(1, static_cast<CmpOp>(rng.nextBounded(6)),
                               src(),
                               static_cast<std::int32_t>(
                                   rng.nextBounded(32))));
        const int skip = 1 + static_cast<int>(rng.nextBounded(3));
        const auto target =
            static_cast<std::int32_t>(body.size()) + 1 + skip;
        body.push_back(bra(target, target, 1, rng.nextBool(0.5)));
        emit_straight(skip);
    }

    if (rng.nextBool(0.5)) {
        // Bounded loop: for (r12 = 0; r12 < bound; ++r12) { ... }
        body.push_back(movImm(12, 0));
        const auto head = static_cast<std::int32_t>(body.size());
        emit_straight(1 + static_cast<int>(rng.nextBounded(3)));
        body.push_back(aluImm(Opcode::IAdd, 12, 12, 1));
        body.push_back(setpImm(
            3, CmpOp::Lt, 12,
            1 + static_cast<std::int32_t>(rng.nextBounded(3))));
        const auto pc = static_cast<std::int32_t>(body.size());
        body.push_back(bra(head, pc + 1, 3, false));
    }

    emit_straight(static_cast<int>(rng.nextBounded(4)));
    body.push_back(memOp(Opcode::Stg, 13, 8, 0));
    body.push_back(exitInstr());

    isa::Program p;
    p.name = "domains-" + std::to_string(index);
    p.body = std::move(body);
    p.launch.gridBlocks = 1;
    p.launch.blockThreads = 32;
    p.sharedBytesPerBlock = 128;
    p.global.resize(64);
    p.constants.resize(16);
    p.texture.resize(16);
    for (Word &w : p.global)
        w = rng.nextU32();
    for (Word &w : p.constants)
        w = rng.nextU32();
    for (Word &w : p.texture)
        w = rng.nextU32();
    return p;
}

/**
 * ExecProbe comparing every issue's concrete machine state against the
 * interpreter's IN facts for that pc. Records the first few violations
 * instead of asserting so one buggy kernel reports coherently.
 */
class SoundnessProbe : public gpu::ExecProbe
{
  public:
    SoundnessProbe(const analysis::AnalysisResult &analysis)
        : analysis_(analysis)
    {
    }

    void
    onIssue(int, int pc, const isa::Instruction &, const gpu::Warp &warp,
            std::uint32_t, std::uint64_t cycle) override
    {
        // Registers outside the generator's convention never change
        // from their initial zero; checking the convention set keeps
        // the probe cheap without losing coverage.
        static constexpr int kRegs[] = {4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15};

        const auto idx = static_cast<std::size_t>(pc);
        if (idx >= analysis_.in.size()) {
            report(pc, "issued past the analyzed body");
            return;
        }
        const analysis::AbsState &in = analysis_.in[idx];
        if (!in.reachable) {
            report(pc, "issued an instruction proven unreachable");
            return;
        }

        const std::uint32_t active = warp.activeMask();
        for (const int r : kRegs) {
            // The abstract facts are architectural; a register with an
            // in-flight load still holds its previous value, and the
            // scoreboard forbids anyone reading it -- skip it just as
            // a consumer would stall on it.
            if (warp.regReadyCycle(r) > cycle)
                continue;
            const analysis::AbsValue &fact =
                in.regs[static_cast<std::size_t>(r)];
            // Per-thread components hold for every lane at this pc.
            for (int lane = 0; lane < gpu::warpSize; ++lane) {
                if (!((active >> lane) & 1u))
                    continue;
                const Word v = warp.reg(lane, r);
                if (!fact.kb().contains(v))
                    report(pc, laneEscape(r, lane, v, fact.kb().toString()));
                if (!fact.si().contains(v))
                    report(pc, laneEscape(r, lane, v, fact.si().toString()));
            }
            // The lane-affine component speaks about the whole 32-lane
            // vector and is only claimed outside divergent regions.
            if (!analysis_.divergentRegion[idx] && fact.affine().known
                && !fact.affine().contains(warp.regBlock(r).data()))
                report(pc, describe('r', r, " vector escapes ",
                                    fact.affine().toString()));
            // regAnywhere must cover the values independent of pc.
            const analysis::KnownBits &any =
                analysis_.regAnywhere[static_cast<std::size_t>(r)];
            for (int lane = 0; lane < gpu::warpSize; ++lane)
                if (!any.contains(warp.reg(lane, r)))
                    report(pc, describe('r', r, " escapes regAnywhere ",
                                        any.toString()));
        }

        // Outside every divergent region the warp must be whole: the
        // advisor's wholeWarp gate builds on exactly this claim.
        if (!analysis_.divergentRegion[idx] && active != gpu::fullMask)
            report(pc, "partial active mask outside divergent regions");

        for (int p = 1; p < isa::numPredicates; ++p) {
            if (warp.predReadyCycle(p) > cycle)
                continue;
            const analysis::PredValue &fact =
                in.preds[static_cast<std::size_t>(p)];
            for (int lane = 0; lane < gpu::warpSize; ++lane) {
                if (!((active >> lane) & 1u))
                    continue;
                const bool v = warp.predicate(lane, p);
                if (fact.value == analysis::Bool3::True && !v)
                    report(pc, describe('p', p, " false despite proven true"));
                if (fact.value == analysis::Bool3::False && v)
                    report(pc, describe('p', p, " true despite proven false"));
            }
            if (fact.uni == analysis::Uniformity::Uniform
                && active == gpu::fullMask) {
                bool any_true = false, any_false = false;
                for (int lane = 0; lane < gpu::warpSize; ++lane)
                    (warp.predicate(lane, p) ? any_true : any_false) =
                        true;
                if (any_true && any_false)
                    report(pc, describe('p', p,
                                        " diverges despite proven uniform"));
            }
        }
    }

    const std::vector<std::string> &violations() const { return bad_; }

  private:
    /**
     * @p kind, @p index, @p how, @p tail: "r3 escapes regAnywhere ...".
     * Appended in steps: GCC 12 misreads an inlined `"r" + string` chain
     * as an overlapping memcpy (-Wrestrict).
     */
    static std::string
    describe(char kind, int index, std::string_view how,
             std::string_view tail = {})
    {
        std::string out(1, kind);
        out += std::to_string(index);
        out += how;
        out += tail;
        return out;
    }

    /** "rR lane L value V escapes DOMAIN". */
    static std::string
    laneEscape(int r, int lane, Word v, const std::string &domain)
    {
        std::string how = " lane ";
        how += std::to_string(lane);
        how += " value ";
        how += std::to_string(v);
        how += " escapes ";
        return describe('r', r, how, domain);
    }

    void
    report(int pc, std::string what)
    {
        if (bad_.size() < 8)
            bad_.push_back("pc " + std::to_string(pc) + ": "
                           + std::move(what));
    }

    const analysis::AnalysisResult &analysis_;
    std::vector<std::string> bad_;
};

} // namespace

class DomainSoundnessTest
    : public ::testing::TestWithParam<tests::KernelShard>
{
};

TEST_P(DomainSoundnessTest, ConcreteLanesNeverEscapeAbstractFacts)
{
    Rng rng(0xd0a145edu);
    for (int i = 0; i < GetParam().end; ++i) {
        const isa::Program program = soundnessKernel(rng, i);
        if (i < GetParam().begin)
            continue;
        const analysis::AnalysisResult analysis =
            analysis::analyzeProgram(program);
        SoundnessProbe probe(analysis);

        sram::NullSink sink;
        gpu::Gpu machine(gpu::baselineConfig(), program, sink);
        machine.setExecProbe(&probe);
        machine.run();

        if (!probe.violations().empty()) {
            std::string listing;
            for (const auto &instr : program.body)
                listing += isa::renderInstruction(instr) + "\n";
            FAIL() << "kernel " << i << ": "
                   << probe.violations().front() << "\n"
                   << listing;
        }
    }
}

// 1000 kernels from one stream, in five entries for the sanitizer jobs.
INSTANTIATE_TEST_SUITE_P(Shards, DomainSoundnessTest,
                         ::testing::ValuesIn(tests::kernelShards(1000, 5)),
                         tests::kernelShardName);
