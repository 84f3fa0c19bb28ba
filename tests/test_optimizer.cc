/**
 * @file
 * Certificate-guided optimizer: per-pass rewrite unit tests, the
 * fallback contract on hostile input, the "suite ships optimal"
 * ratchet, byte-identical energy accounting under certificate-
 * specialized dispatch, and -- the heart -- a 1000-random-kernel
 * property: every admitted kernel the optimizer changes passes
 * translation validation, re-admits with a certificate no weaker than
 * the original's, and (when its certificate proves uniform control
 * flow) simulates to byte-identical per-unit bit densities and energy
 * with the specialized dispatch loop on and off.
 */

#include <gtest/gtest.h>

#include <string>

#include "analysis/optimizer.hh"
#include "analysis/verifier.hh"
#include "common/rng.hh"
#include "core/contract.hh"
#include "core/experiment.hh"
#include "gpu/gpu_config.hh"
#include "isa/asm.hh"
#include "isa/bytecode.hh"
#include "workload/kernel_builder.hh"

#include "kernel_shards.hh"
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

analysis::OptimizeResult
optimizeText(const std::string &text)
{
    return analysis::optimizeProgram(mustParse(text));
}

/**
 * Assert two runs of (possibly different dispatch configurations of)
 * the same program produced byte-identical statistics: cycle counts,
 * per-unit per-scenario bit densities, NoC traffic and priced energy.
 * Doubles are compared exactly -- the accounting is deterministic, so
 * any difference at all means the runs diverged.
 */
void
expectByteIdenticalRuns(const core::ExperimentDriver &driver,
                        const core::AppRun &a, const core::AppRun &b,
                        const std::string &label)
{
    ASSERT_EQ(a.gpuStats.cycles, b.gpuStats.cycles) << label;
    ASSERT_EQ(a.gpuStats.sm.issued, b.gpuStats.sm.issued) << label;
    ASSERT_EQ(a.gpuStats.sm.loads, b.gpuStats.sm.loads) << label;
    ASSERT_EQ(a.gpuStats.sm.stores, b.gpuStats.sm.stores) << label;

    for (const coder::Scenario s : coder::allScenarios) {
        const auto sa = a.accountant->unitStats(s);
        const auto sb = b.accountant->unitStats(s);
        ASSERT_EQ(sa.size(), sb.size()) << label;
        for (const auto &[unit, ua] : sa) {
            const auto it = sb.find(unit);
            ASSERT_TRUE(it != sb.end()) << label;
            const auto &ub = it->second;
            EXPECT_EQ(ua.reads.ones, ub.reads.ones) << label;
            EXPECT_EQ(ua.reads.zeros, ub.reads.zeros) << label;
            EXPECT_EQ(ua.reads.toggles, ub.reads.toggles) << label;
            EXPECT_EQ(ua.writes.ones, ub.writes.ones) << label;
            EXPECT_EQ(ua.writes.zeros, ub.writes.zeros) << label;
            EXPECT_EQ(ua.writes.toggles, ub.writes.toggles) << label;
            EXPECT_EQ(ua.storedOnesFracCycles, ub.storedOnesFracCycles)
                << label;
            EXPECT_EQ(ua.allocatedFracCycles, ub.allocatedFracCycles)
                << label;
        }
        const auto &na = a.accountant->noc(s);
        const auto &nb = b.accountant->noc(s);
        EXPECT_EQ(na.toggles, nb.toggles) << label;
        EXPECT_EQ(na.flits, nb.flits) << label;
        EXPECT_EQ(na.payloadOnes, nb.payloadOnes) << label;
        EXPECT_EQ(na.payloadBits, nb.payloadBits) << label;
    }

    const core::AppEnergy ea = driver.evaluate(a, core::Pricing{});
    const core::AppEnergy eb = driver.evaluate(b, core::Pricing{});
    for (const coder::Scenario s : coder::allScenarios) {
        EXPECT_EQ(ea.at(s).chipTotal(), eb.at(s).chipTotal()) << label;
        EXPECT_EQ(ea.at(s).bvfUnitsTotal(), eb.at(s).bvfUnitsTotal())
            << label;
    }
}

} // namespace

TEST(Optimizer, FoldsConstantsIntoImmediates)
{
    const auto res = optimizeText(".kernel fold\n"
                                  ".launch 1 32\n"
                                  ".shared 256\n"
                                  "    S2R R1, SR_TIDX\n"
                                  "    SHL R2, R1, #2\n"
                                  "    AND R2, R2, #124\n"
                                  "    MOV R3, #5\n"
                                  "    IADD R4, R3, #7\n"
                                  "    STS [R2 + 0], R4\n"
                                  "    EXIT\n");
    ASSERT_TRUE(res.originalAdmitted) << res.note;
    ASSERT_TRUE(res.accepted) << res.note;
    EXPECT_TRUE(res.changed);
    EXPECT_GE(res.stats.foldedConstants, 1u);
    // Once the add is folded to an immediate move, its operand's
    // producer is dead and must go in the same accepted edit.
    EXPECT_GE(res.stats.removedDead, 1u);
    EXPECT_LT(res.program.body.size(), 7u);
}

TEST(Optimizer, StrengthReducesAndPropagatesCopies)
{
    const auto res = optimizeText(".kernel strength\n"
                                  ".launch 1 32\n"
                                  ".shared 256\n"
                                  "    S2R R1, SR_TIDX\n"
                                  "    MOV R2, R1\n"
                                  "    IADD R3, R2, R2\n"
                                  "    IMUL R4, R1, #8\n"
                                  "    XOR R5, R3, R4\n"
                                  "    AND R6, R5, #252\n"
                                  "    STS [R6 + 0], R5\n"
                                  "    EXIT\n");
    ASSERT_TRUE(res.originalAdmitted) << res.note;
    ASSERT_TRUE(res.accepted) << res.note;
    EXPECT_GE(res.stats.reducedStrength, 1u); // IMUL x8 -> SHL by 3
    EXPECT_GE(res.stats.propagatedCopies, 2u); // both IADD operands
    EXPECT_GE(res.stats.removedDead, 1u); // the copy itself dies
}

TEST(Optimizer, DeletesGuardFalseAndDeadWrites)
{
    const auto res = optimizeText(".kernel deadcode\n"
                                  ".launch 1 32\n"
                                  ".shared 256\n"
                                  "    S2R R1, SR_TIDX\n"
                                  "    MOV R2, #5\n"
                                  "    SETP.LT P1, R2, #3\n"
                                  "    @P1 IADD R2, R2, #1\n"
                                  "    MOV R9, #7\n"
                                  "    AND R3, R1, #31\n"
                                  "    SHL R3, R3, #2\n"
                                  "    STS [R3 + 0], R2\n"
                                  "    EXIT\n");
    ASSERT_TRUE(res.originalAdmitted) << res.note;
    ASSERT_TRUE(res.accepted) << res.note;
    EXPECT_GE(res.stats.removedGuardFalse, 1u); // 5 < 3 is False
    EXPECT_GE(res.stats.removedDead, 1u);       // MOV R9 is never read
}

TEST(Optimizer, CollapsesProvablyTakenBranch)
{
    const auto res = optimizeText(".kernel taken\n"
                                  ".launch 1 32\n"
                                  "    MOV R2, #1\n"
                                  "    SETP.EQ P1, R2, #1\n"
                                  "    @P1 BRA Ldone, join=Ldone\n"
                                  "    IADD R2, R2, #1\n"
                                  "Ldone:\n"
                                  "    EXIT\n");
    ASSERT_TRUE(res.originalAdmitted) << res.note;
    ASSERT_TRUE(res.accepted) << res.note;
    EXPECT_GE(res.stats.flattenedBranches, 1u);
    EXPECT_GE(res.stats.removedUnreachable, 1u);
    EXPECT_GE(res.stats.removedBranches, 1u);
    // Everything is provably dead once the branch collapses: the
    // optimized body is the lone EXIT.
    EXPECT_EQ(res.program.body.size(), 1u);
}

TEST(Optimizer, HostileKernelFallsBackByteIdentical)
{
    const isa::Program hostile =
        mustParse(".kernel hostile\n"
                  ".launch 1 32\n"
                  "    IADD R2, R20, R21\n" // uninitialized read
                  "    EXIT\n");
    const auto res = analysis::optimizeProgram(hostile);
    EXPECT_FALSE(res.originalAdmitted);
    EXPECT_FALSE(res.accepted);
    EXPECT_FALSE(res.changed);
    EXPECT_EQ(isa::encodeProgram(res.program),
              isa::encodeProgram(hostile));
    EXPECT_FALSE(res.note.empty());
}

TEST(Optimizer, ValidationCanBeSkipped)
{
    const isa::Program p = mustParse(".kernel skipval\n"
                                     ".launch 1 32\n"
                                     "    MOV R2, #5\n"
                                     "    IADD R3, R2, #7\n"
                                     "    EXIT\n");
    analysis::OptimizeOptions opts;
    opts.validate = false;
    const auto res = analysis::optimizeProgram(p, opts);
    ASSERT_TRUE(res.originalAdmitted);
    EXPECT_TRUE(res.changed);
    EXPECT_FALSE(res.accepted); // acceptance requires validation
    EXPECT_EQ(res.note, "validation skipped");
}

TEST(Optimizer, OptimizedBytecodeStaysCanonical)
{
    const auto res = optimizeText(".kernel canon\n"
                                  ".launch 1 32\n"
                                  ".shared 256\n"
                                  "    S2R R1, SR_TIDX\n"
                                  "    MOV R2, #5\n"
                                  "    IADD R3, R2, #7\n"
                                  "    AND R4, R1, #31\n"
                                  "    SHL R4, R4, #2\n"
                                  "    STS [R4 + 0], R3\n"
                                  "    EXIT\n");
    ASSERT_TRUE(res.accepted) << res.note;
    const std::string bytes = isa::encodeProgram(res.program);
    auto decoded = isa::decodeProgram(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(isa::encodeProgram(decoded.value()), bytes);
}

namespace
{

// The suite must ship optimizer-clean: any rewrite the optimizer can
// still prove on a committed kernel is a regression (the CI lint
// ratchet enforces the same property via bvf_lint --optimize). Split
// by index parity to stay inside the per-test timeout under ASan.
void
suiteAlreadyOptimalHalf(std::size_t parity)
{
    const auto &suite = workload::evaluationSuite();
    for (std::size_t i = parity; i < suite.size(); i += 2) {
        const auto &spec = suite[i];
        const auto res = analysis::optimizeProgram(
            workload::buildProgram(spec));
        ASSERT_TRUE(res.originalAdmitted) << spec.abbr;
        EXPECT_EQ(res.stats.total(), 0u)
            << spec.abbr << ": " << res.note;
        EXPECT_FALSE(res.changed) << spec.abbr;
    }
}

} // namespace

TEST(Optimizer, SuiteShipsOptimalFirstHalf)
{
    suiteAlreadyOptimalHalf(0);
}

TEST(Optimizer, SuiteShipsOptimalSecondHalf)
{
    suiteAlreadyOptimalHalf(1);
}

TEST(Optimizer, UniformDispatchIsByteIdenticalOnSuiteKernels)
{
    const core::ExperimentDriver driver(gpu::baselineConfig());
    int compared = 0;
    for (const auto &spec : workload::evaluationSuite()) {
        if (compared == 3)
            break;
        const isa::Program program = workload::buildProgram(spec);
        const auto verdict = analysis::verifyProgram(program);
        ASSERT_TRUE(verdict.admitted) << spec.abbr;
        if (!verdict.certificate.uniformControlFlow)
            continue;
        core::RunOptions base;
        const core::AppRun a = driver.runProgram(program, base);
        core::RunOptions fast;
        fast.uniformDispatch = true;
        const core::AppRun b = driver.runProgram(program, fast);
        expectByteIdenticalRuns(driver, a, b, spec.abbr);
        ++compared;
    }
    // The suite carries plenty of certified-uniform kernels; if this
    // stops finding them the certificate bit regressed.
    EXPECT_EQ(compared, 3);
}

namespace
{

/**
 * One shard of the 1000-random-kernel optimizer property. For every
 * admitted kernel: the optimizer either proves nothing or produces a
 * translation-validated program that re-admits with a certificate no
 * weaker than the original's. For a bounded sample of kernels whose
 * certificate proves uniform control flow, the specialized dispatch
 * loop must account byte-identical per-unit bit densities and energy.
 */
void
randomOptimizerProperty(std::uint64_t seed, tests::KernelShard shard,
                        int maxSimPairs)
{
    const core::ExperimentDriver driver(gpu::baselineConfig());
    Rng rng(seed);
    const int count = shard.end - shard.begin;
    int admitted = 0;
    int accepted = 0;
    int simPairs = 0;

    for (int k = 0; k < shard.end; ++k) {
        const std::string text = tests::randomKernelAsm(rng);
        if (k < shard.begin)
            continue;
        auto parsed = isa::parseAsm(text);
        ASSERT_TRUE(parsed.ok())
            << "kernel " << k << ": " << parsed.error().message;
        const isa::Program &program = parsed.value();

        const auto verdict = analysis::verifyProgram(program);
        const auto res = analysis::optimizeProgram(program);
        ASSERT_EQ(res.originalAdmitted, verdict.admitted)
            << "kernel " << k << "\n" << text;
        if (!verdict.admitted) {
            // Fallback contract: hostile input comes back untouched.
            ASSERT_EQ(isa::encodeProgram(res.program),
                      isa::encodeProgram(program))
                << "kernel " << k;
            continue;
        }
        ++admitted;

        // The pipeline must never get stuck between states: either it
        // proved nothing, or validation accepted the whole edit set.
        ASSERT_TRUE(res.accepted || res.stats.total() == 0)
            << "kernel " << k << ": " << res.note << "\n" << text;

        if (res.accepted) {
            ++accepted;
            const auto again = analysis::verifyProgram(res.program);
            ASSERT_TRUE(again.admitted) << "kernel " << k;
            ASSERT_LE(again.certificate.warpTripBound,
                      verdict.certificate.warpTripBound)
                << "kernel " << k;
        }

        if (verdict.certificate.uniformControlFlow
            && simPairs < maxSimPairs) {
            ++simPairs;
            core::RunOptions base;
            auto a = driver.runProgramChecked(program, base);
            ASSERT_TRUE(a.ok()) << "kernel " << k << ": "
                                << a.error().message;
            core::RunOptions fast;
            fast.uniformDispatch = true;
            auto b = driver.runProgramChecked(program, fast);
            ASSERT_TRUE(b.ok()) << "kernel " << k << ": "
                                << b.error().message;
            expectByteIdenticalRuns(driver, a.value(), b.value(),
                                    "kernel " + std::to_string(k));
        }
    }

    // The generator is biased toward admissible kernels, and those are
    // full of foldable immediates: both populations must show up or
    // the property is testing air.
    EXPECT_GE(admitted, count / 2);
    EXPECT_GE(accepted, count / 4);
    EXPECT_GE(simPairs, maxSimPairs / 2);
}

} // namespace

// 4 x 250 = 1000 random kernels total, distinct seed per shard. The
// sim-pair budget is kept modest so the shards stay comfortably under
// the test timeout in the sanitizer builds; shard 0 is split further,
// in two entries of 125 kernels with half the sim-pair budget each.
class OptimizerShard0 : public ::testing::TestWithParam<tests::KernelShard>
{
};

TEST_P(OptimizerShard0, RandomKernelsValidate)
{
    randomOptimizerProperty(0xb1f1001u, GetParam(), 5);
}

INSTANTIATE_TEST_SUITE_P(Shards, OptimizerShard0,
                         ::testing::ValuesIn(tests::kernelShards(250, 2)),
                         tests::kernelShardName);

TEST(Optimizer, RandomKernelsValidateShard1)
{
    randomOptimizerProperty(0xb1f1002u, {0, 250}, 10);
}

TEST(Optimizer, RandomKernelsValidateShard2)
{
    randomOptimizerProperty(0xb1f1003u, {0, 250}, 10);
}

TEST(Optimizer, RandomKernelsValidateShard3)
{
    randomOptimizerProperty(0xb1f1004u, {0, 250}, 10);
}
