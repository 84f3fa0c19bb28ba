/**
 * @file
 * Exactness pins for the static density predictor and the coder
 * advisor (static_pins.hh). Per program and architecture, three
 * CRC-32s: every StaticPrediction field under the default
 * PredictorOptions, every field of StaticAdvice::prediction (the
 * advisor's options: its specialized ISA mask), and every other
 * StaticAdvice field. Doubles are rendered exactly (%a), never as the
 * reports' rounded decimals. The programs: the 58 suite kernels under
 * all four architectures, the 1000 random kernels test_verifier draws,
 * hand-written kernels for cases those lack, and every corpus input
 * that parses or decodes; random kernel k and corpus input k run under
 * architecture k mod 4.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/advisor.hh"
#include "analysis/interpreter.hh"
#include "analysis/predictor.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "isa/asm.hh"
#include "isa/encoding.hh"
#include "workload/kernel_builder.hh"

#include "corpus_programs.hh"
#include "random_kernel.hh"
#include "static_pins.hh"

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
renderBound(const DensityBound &b)
{
    return strFormat(" %d:%a:%a", int(b.any), b.lo, b.hi);
}

std::string
renderRatio(const RatioBound &b)
{
    return strFormat(" %a:%a", b.lo, b.hi);
}

/** Every StaticPrediction field, in one canonical string. */
std::string
renderPrediction(const StaticPrediction &p)
{
    std::string out;
    for (const auto &[unit, bounds] : p.units) {
        out += strFormat("unit %d", int(unit));
        for (const DensityBound &b : bounds)
            out += renderBound(b);
        out += "\n";
    }
    out += "noc";
    for (const DensityBound &b : p.noc)
        out += renderBound(b);
    out += "\nmean";
    for (const double m : p.meanMidpoint)
        out += strFormat(" %a", m);
    out += strFormat("\nbest %d\n", coder::scenarioIndex(p.bestStatic));
    return out;
}

/** Every StaticAdvice field but the prediction. */
std::string
renderAdvice(const StaticAdvice &a)
{
    const PivotAdvice &pv = a.pivot;
    std::string out = strFormat("pivot %d %a %d %d\nbounds", pv.bestPivot,
                                pv.provenSlack, pv.affineSources,
                                pv.totalSources);
    for (const DensityBound &b : pv.bounds)
        out += renderBound(b);
    out += "\nscores";
    for (const double s : pv.score)
        out += strFormat(" %a", s);

    const IsaAdvice &ia = a.isa;
    out += strFormat("\nisa %llx %llx %d",
                     static_cast<unsigned long long>(ia.defaultMask),
                     static_cast<unsigned long long>(ia.specializedMask),
                     int(ia.anyInstruction));
    out += renderRatio(ia.defaultDensity) + renderRatio(ia.specializedDensity);
    out += "\nhistogram";
    for (const std::uint32_t n : ia.histogram)
        out += strFormat(" %u", n);

    for (const UnitPick &p : a.unitPicks) {
        out += strFormat("\npick %d %d %d", int(p.unit),
                         coder::scenarioIndex(p.pick), int(p.proven));
        out += renderBound(p.nv) + renderBound(p.vs);
    }
    out += strFormat("\nbest %d\n", coder::scenarioIndex(a.bestScenario));
    return out;
}

/** The pin of @p program under @p arch, given its fixpoint. */
tests::StaticPin
pinOf(const isa::Program &program, const AnalysisResult &analysis,
      isa::GpuArch arch)
{
    PredictorOptions popts;
    popts.arch = arch;
    AdvisorOptions aopts;
    aopts.arch = arch;
    const StaticAdvice advice = adviseProgram(program, analysis, aopts);
    return {crcOf(renderPrediction(predictDensity(program, analysis, popts))),
            crcOf(renderPrediction(advice.prediction)),
            crcOf(renderAdvice(advice))};
}

/**
 * The pin of @p program under @p arch. A program with an unknown
 * opcode is not analysed (its pin is 0): the predictor and advisor
 * only see suite kernels and kernels the verifier admitted.
 */
tests::StaticPin
pinOf(const isa::Program &program, isa::GpuArch arch)
{
    if (tests::hasUnknownOpcode(program))
        return {};
    return pinOf(program, analyzeProgram(program), arch);
}

isa::GpuArch
archAt(std::size_t k)
{
    const auto &archs = isa::allGpuArchs();
    return archs[k % archs.size()];
}

/**
 * Compare @p actual with its pin (null when none is recorded); on a
 * mismatch, name the program and its new pin.
 */
void
expectPin(const std::string &what, const tests::StaticPin *pinned,
          const tests::StaticPin &actual)
{
    const tests::StaticPin want = pinned ? *pinned : tests::StaticPin{};
    EXPECT_TRUE(want.prediction == actual.prediction
                && want.advised == actual.advised
                && want.advice == actual.advice)
        << what << ": pinned {0x" << std::hex << want.prediction << ", 0x"
        << want.advised << ", 0x" << want.advice << "}, got {0x"
        << actual.prediction << ", 0x" << actual.advised << ", 0x"
        << actual.advice << "}" << std::dec;
}

// --- the suite: one entry per app, all four architectures ----------------

class SuiteStaticPins : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SuiteStaticPins, PredictionAndAdvice)
{
    const std::size_t app = GetParam();
    const auto &spec = workload::evaluationSuite()[app];
    const auto &pins = tests::kSuiteStaticPins;
    const tests::SuiteStaticPin *pinned =
        app < pins.size() ? &pins[app] : nullptr;
    if (pinned) {
        EXPECT_EQ(spec.abbr, pinned->abbr);
    }

    const isa::Program program = workload::buildProgram(spec);
    const AnalysisResult analysis = analyzeProgram(program);
    const auto &archs = isa::allGpuArchs();
    for (std::size_t a = 0; a < archs.size(); ++a) {
        expectPin("suite " + spec.abbr + " " + isa::gpuArchName(archs[a]),
                  pinned ? &pinned->archs[a] : nullptr,
                  pinOf(program, analysis, archs[a]));
    }
}

INSTANTIATE_TEST_SUITE_P(
    StaticPins, SuiteStaticPins,
    ::testing::Range<std::size_t>(0, workload::evaluationSuite().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return workload::evaluationSuite()[info.param].abbr;
    });

TEST(StaticPins, EverySuiteKernelIsPinned)
{
    EXPECT_EQ(workload::evaluationSuite().size(),
              tests::kSuiteStaticPins.size());
}

// --- test_verifier's random kernels: one entry per seed ------------------

constexpr std::uint64_t kFirstSeed = 0xb1f0001u;
constexpr int kSeeds = 4;
constexpr int kKernelsPerSeed = 250;

class RandomStaticPins : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomStaticPins, PredictionAndAdvice)
{
    const int shard = GetParam();
    Rng rng(kFirstSeed + static_cast<std::uint64_t>(shard));
    const auto &pins = tests::kRandomStaticPins;
    for (int n = 0; n < kKernelsPerSeed; ++n) {
        const auto k = static_cast<std::size_t>(shard * kKernelsPerSeed + n);
        auto parsed = isa::parseAsm(tests::randomKernelAsm(rng));
        ASSERT_TRUE(parsed.ok()) << "kernel " << k;
        expectPin("random " + std::to_string(k),
                  k < pins.size() ? &pins[k] : nullptr,
                  pinOf(parsed.value(), archAt(k)));
    }
}

INSTANTIATE_TEST_SUITE_P(StaticPins, RandomStaticPins,
                         ::testing::Range(0, kSeeds),
                         [](const ::testing::TestParamInfo<int> &info) {
                             return strFormat("Seed%llx",
                                              static_cast<unsigned long long>(
                                                  kFirstSeed + info.param));
                         });

TEST(StaticPins, EveryRandomKernelIsPinned)
{
    EXPECT_EQ(static_cast<std::size_t>(kSeeds * kKernelsPerSeed),
              tests::kRandomStaticPins.size());
}

// --- hand-written kernels --------------------------------------------------

/**
 * P1 is never written, so it keeps its initial false on every lane: the
 * guarded MOV runs on no lane, and the source walk must skip it, or its
 * result would widen the register file's bounds past the zero R1 holds.
 * No suite, random or corpus kernel has a provably false guard.
 */
constexpr const char *kFalseGuard = R"(.kernel pin-false-guard
.launch 1 32
    MOV R1, #0
    @P1 MOV R2, #1
    EXIT
)";

/**
 * R1 is lane - 32, in [-32, -1], so R1 * R1 lies in [1, 1024]. The
 * signed interval knows that; the unreduced known bits do not, since
 * the unsigned product of two words near 2^32 overflows, and leave
 * R2 unknown. R2 is the only source whose two forms differ, and it
 * moves the register file's NvOnly hull: the predictor must bound it
 * by the unreduced aluResult (the choice advisor.cc does not share),
 * so a predictor that read the reduced aluValue moves this pin.
 */
constexpr const char *kReducedAlu = R"(.kernel pin-reduced-alu
.launch 1 32
    S2R R0, SR_LANEID
    ISUB R1, R0, #32
    IMUL R2, R1, R1
    EXIT
)";

TEST(StaticPins, HandWrittenKernels)
{
    const char *const kernels[] = {kFalseGuard, kReducedAlu};
    const auto &pins = tests::kHandWrittenStaticPins;
    for (std::size_t i = 0; i < std::size(kernels); ++i) {
        auto parsed = isa::parseAsm(kernels[i]);
        ASSERT_TRUE(parsed.ok()) << parsed.error().message;
        const tests::StaticPin *pinned = nullptr;
        if (i < pins.size()) {
            EXPECT_EQ(parsed.value().name, pins[i].name);
            pinned = &pins[i].pin;
        }
        expectPin("kernel " + parsed.value().name, pinned,
                  pinOf(parsed.value(), isa::GpuArch::Pascal));
    }
    EXPECT_EQ(std::size(kernels), pins.size());
}

// --- corpus inputs ---------------------------------------------------------

TEST(StaticPins, CorpusInputs)
{
    const auto programs = tests::corpusPrograms();
    const auto &pins = tests::kCorpusStaticPins;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const tests::StaticPin *pinned = nullptr;
        if (i < pins.size()) {
            EXPECT_EQ(programs[i].name, pins[i].name);
            pinned = &pins[i].pin;
        }
        expectPin("corpus " + programs[i].name, pinned,
                  pinOf(programs[i].program, archAt(i)));
    }
    EXPECT_EQ(programs.size(), pins.size());
}

} // namespace
