/**
 * @file
 * End-to-end soundness of the static pipeline against the simulator.
 *
 * The heart is a property test: generate canonical random kernels --
 * straight-line ALU mixes, predicated ops, forward branches, bounded
 * loops, every memory space -- run each on the full machine with the
 * energy accountant, and require that no observed per-unit bit density
 * in any scenario ever escapes its statically proven interval. One
 * contradiction means a transfer function or coder lowering is unsound.
 */

#include <gtest/gtest.h>

#include "analysis/advisor.hh"
#include "analysis/lint.hh"
#include "common/rng.hh"
#include "core/accountant.hh"
#include "core/experiment.hh"
#include "core/static_check.hh"
#include "gpu/gpu.hh"
#include "isa/asm.hh"
#include "workload/app_spec.hh"
#include "workload/kernel_builder.hh"

#include "kernel_shards.hh"

using namespace bvf;
using isa::CmpOp;
using isa::Instruction;
using isa::Opcode;
using isa::SpecialReg;

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
 * One canonical random kernel. Register convention: r4 = tid,
 * r5-r7/r13-r15 = data pool, r8 = global base, r10 = masked shared
 * offset, r11 = masked constant/texture offset, r12 = loop counter.
 */
isa::Program
randomKernel(Rng &rng, int index)
{
    // Source regs cover the stable address registers too; destinations
    // never clobber an address register so every access stays canonical.
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
            // Global load; offsets past the 256-byte image read zero.
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
            // Occasionally set a predicate and guard what follows.
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
    // Always store one result so the kernel has an observable effect.
    body.push_back(memOp(Opcode::Stg, 13, 8, 0));
    body.push_back(exitInstr());

    isa::Program p;
    p.name = "random-" + std::to_string(index);
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

/** Simulate @p program with full accounting and cross-check it. */
std::vector<std::string>
simulateAndCheck(const isa::Program &program)
{
    const gpu::GpuConfig config = gpu::baselineConfig();
    const core::ExperimentDriver driver(config);

    core::AccountantOptions opts;
    opts.arch = config.arch;
    core::EnergyAccountant accountant(driver.unitCapacities(), opts);

    const auto report =
        core::analyzeStatic(program, config, accountant.isaMask());

    gpu::Gpu machine(config, program, accountant);
    const auto stats = machine.run();
    accountant.finalize(stats.cycles);

    return core::crossCheckRun(report, accountant);
}

} // namespace

class StaticCheckRandomKernels
    : public ::testing::TestWithParam<tests::KernelShard>
{
};

TEST_P(StaticCheckRandomKernels, NeverContradictStaticFacts)
{
    Rng rng(0x5eed5eedu);
    for (int i = 0; i < GetParam().end; ++i) {
        const auto program = randomKernel(rng, i);
        if (i < GetParam().begin)
            continue;
        const auto violations = simulateAndCheck(program);
        if (!violations.empty()) {
            std::string listing;
            for (const auto &instr : program.body)
                listing += isa::renderInstruction(instr) + "\n";
            FAIL() << "kernel " << i << ": " << violations.front()
                   << "\n" << listing;
        }
    }
}

// 1000 kernels from one stream, in five entries for the sanitizer jobs.
INSTANTIATE_TEST_SUITE_P(Shards, StaticCheckRandomKernels,
                         ::testing::ValuesIn(tests::kernelShards(1000, 5)),
                         tests::kernelShardName);

TEST(StaticCheckTest, PredictionIsWellFormed)
{
    Rng rng(0xf00df00du);
    const auto program = randomKernel(rng, 0);
    const auto report =
        core::analyzeStatic(program, gpu::baselineConfig());
    for (const auto &[unit, bounds] : report.prediction.units) {
        for (const auto &b : bounds) {
            if (!b.any)
                continue;
            EXPECT_GE(b.lo, 0.0) << coder::unitName(unit);
            EXPECT_LE(b.hi, 1.0) << coder::unitName(unit);
            EXPECT_LE(b.lo, b.hi) << coder::unitName(unit);
        }
    }
    EXPECT_NE(report.prediction.bestStatic, coder::Scenario::Baseline);
}

TEST(StaticCheckTest, ViolationReportedForImpossibleObservation)
{
    // Hand the checker an observation outside any [0,1] interval proven
    // for a unit the kernel provably never touches with ones.
    Rng rng(0xabadcafeu);
    const auto program = randomKernel(rng, 0);
    const auto report =
        core::analyzeStatic(program, gpu::baselineConfig());
    std::vector<analysis::ObservedStream> streams;
    streams.push_back({coder::UnitId::Reg, coder::Scenario::Baseline,
                       "reads", 5, 4}); // ratio 1.25: impossible
    const auto violations =
        analysis::crossCheck(report.prediction, streams, {});
    EXPECT_EQ(violations.size(), 1u);
}

TEST(StaticCheckTest, EvaluationSuiteLintsClean)
{
    int kernels = 0;
    for (const auto &spec : workload::evaluationSuite()) {
        const auto program = workload::buildProgram(spec);
        const auto findings = analysis::lintProgram(program);
        EXPECT_TRUE(findings.empty())
            << spec.abbr << ": " << findings.front().toString();
        ++kernels;
    }
    EXPECT_GT(kernels, 50);
}

TEST(StaticCheckTest, SampledSuiteAppsPassCrossCheck)
{
    // A cross-section of the suite: constants, texture, shared memory,
    // branchy control flow, and streaming global traffic.
    core::ExperimentDriver driver(gpu::baselineConfig());
    core::RunOptions options;
    options.checkStatic = true;
    for (const char *abbr : {"KMN", "TRI", "BFS", "GES", "ATA", "HSP"}) {
        const auto result =
            driver.runAppChecked(workload::findApp(abbr), options);
        EXPECT_TRUE(result.ok())
            << abbr << ": "
            << (result.ok() ? "" : result.error().describe());
        // The prediction the run was checked against comes back.
        EXPECT_TRUE(result.ok() && result.value().staticPrediction) << abbr;
    }
}

/** KMN's static pivot advice and a dynamic sweep tapped off its run. */
struct AdvisedRun
{
    analysis::StaticAdvice advice;
    core::PivotSweepSink sweep;
};

const AdvisedRun &
advisedKmn()
{
    static const AdvisedRun r = [] {
        AdvisedRun out;
        const gpu::GpuConfig config = gpu::baselineConfig();
        const workload::AppSpec &spec = workload::findApp("KMN");
        const isa::Program program = workload::buildProgram(spec);
        analysis::AdvisorOptions opts;
        opts.arch = config.arch;
        opts.lineBytes = config.lineBytes;
        out.advice = analysis::adviseProgram(
            program, analysis::analyzeProgram(program), opts);
        core::RunOptions options;
        options.tap = &out.sweep;
        core::ExperimentDriver(config).runApp(spec, options);
        return out;
    }();
    return r;
}

TEST(StaticCheckTest, AdviceHoldsAgainstTheSweep)
{
    const AdvisedRun &r = advisedKmn();
    ASSERT_GT(r.sweep.accesses(), 0u);
    EXPECT_TRUE(core::crossCheckAdvice(r.advice, r.sweep).empty());
}

TEST(StaticCheckTest, AdviceCheckNamesANarrowedPivot)
{
    const AdvisedRun &r = advisedKmn();
    const int pivot = 7;
    const double measured = r.sweep.count(pivot).density();
    ASSERT_GT(r.sweep.count(pivot).bits, 0u);
    analysis::StaticAdvice advice = r.advice;
    auto &bound = advice.pivot.bounds[static_cast<std::size_t>(pivot)];
    bound.lo = bound.hi = measured + 0.01;
    const auto violations = core::crossCheckAdvice(advice, r.sweep);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].rfind("pivot 7: measured density", 0), 0u)
        << violations[0];
}

TEST(StaticCheckTest, AdviceCheckCatchesAGapBeyondTheSlack)
{
    const AdvisedRun &r = advisedKmn();
    const double gap =
        r.sweep.count(r.sweep.bestMeasuredPivot()).density()
        - r.sweep.count(r.advice.pivot.bestPivot).density();
    analysis::StaticAdvice advice = r.advice;
    advice.pivot.provenSlack = gap - 0.01;
    const auto violations = core::crossCheckAdvice(advice, r.sweep);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].find("more than the proven slack"),
              std::string::npos)
        << violations[0];
}
