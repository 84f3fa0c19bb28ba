/**
 * @file
 * Exactness pins for the certificate probe (core/contract.hh) on the
 * runs where it matters most: kernels whose loads stall on a full MSHR
 * file again and again. Each entry verifies one kernel, runs it under
 * a ContractProbe through runProgramChecked (the bvfd eval path) and
 * pins what the probe counted, the per-warp issue maximum and the
 * footprint-checked accesses, beside the run's cycles and issued
 * instructions. A retried load is one architectural issue, so none of
 * these may depend on how often a stalled load retries. The probe sees
 * no retry, so a stalled SM freezes under it (DESIGN.md §3): the run's
 * frozen steps are the unprobed run's, which gpu_pins.hh pins for the
 * suite apps.
 *
 * Entries: suite apps with many MSHR-full retries, at the default
 * configuration, and store-under-stall on one SM with one MSHR.
 *
 * Re-deriving the pins is for intended model changes only:
 *   build/tests/test_contract_pins --gtest_also_run_disabled_tests \
 *       --gtest_filter='*PrintPins*'
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "analysis/verifier.hh"
#include "common/logging.hh"
#include "core/contract.hh"
#include "core/experiment.hh"
#include "gpu/gpu_config.hh"
#include "gpu_pins.hh"
#include "isa/asm.hh"
#include "workload/app_spec.hh"
#include "workload/kernel_builder.hh"

namespace bvf::core
{
namespace
{

/**
 * test_gpu_trace.cc's store_under_stall in a form the verifier admits:
 * the segment base is built from a 16-bit immediate, the registers
 * written under one predicate only start at zero, and warp 1's load
 * address is R11 itself, held back until its shared load's write of R4
 * lands, instead of a copy read back from shared memory. Its retry
 * still goes through the same three full tag phases: the first stall,
 * the retry after warp 0's store evicts the hit line, and the retry
 * after warp 0's fill frees the MSHR.
 */
constexpr const char *storeUnderStallAsm = R"(
.kernel store_under_stall
.launch 1 64
.shared 256
.global 256
    S2R R1, SR_TIDX
    MOV R9, #1
    SHL R9, R9, #16
    MOV R4, #0
    MOV R7, #0
    AND R8, R1, #31
    SHL R8, R8, #2
    IADD R10, R9, R8          // 0x10000 + lane * 4
    AND R11, R1, #16
    SHL R11, R11, #4
    IADD R11, R11, R10        // lanes 16-31 one line further on
    SETP.GE P1, R1, #32       // warp 1
    SETP.LT P2, R1, #32       // warp 0
    STS [R8 + 0], R11
    LDG R2, [R10 + 0]         // both warps bring 0x10000 in
    NOP                       // pad to the next fetch group: it is
    NOP                       // fetched while the line is in flight
    NOP
    NOP
    NOP
    NOP
    NOP
    NOP
    NOP
    IADD R3, R2, #0           // wait for the fill
    @P1 LDS R4, [R8 + 0]
    @P2 LDG R6, [R10 + 512]   // warp 0 takes the MSHR
    @P2 LDS R7, [R8 + 0]
    @P1 LDG R4, [R11 + 0]     // warp 1: hit, then MSHR-full
    @P2 STG [R10 + 0], R7     // warp 0 evicts warp 1's hit line
    IADD R5, R4, #0
    EXIT
)";

struct ContractPin
{
    std::string_view name;
    std::uint64_t maxIssued;       //!< ContractProbe::maxIssued()
    std::uint64_t checkedAccesses; //!< ContractProbe::checkedAccesses()
    std::uint64_t cycles;          //!< GpuStats::cycles
    std::uint64_t issued;          //!< GpuStats::sm.issued
    std::uint64_t frozenSteps;     //!< the unprobed run's frozenSteps
};

constexpr ContractPin kContractPins[] = {
    {"BFS", 307, 153600, 50249, 58944, 536977},
    {"SPM", 322, 128000, 52396, 51520, 466897},
    {"MDS", 454, 184320, 52942, 72640, 486136},
    {"TRA", 255, 430080, 35435, 48960, 365533},
    {"QTC", 327, 102400, 47067, 41856, 375069},
    {"LBF", 307, 128000, 48952, 49120, 465714},
    {"BH", 400, 122880, 48487, 51200, 377011},
    {"MST", 317, 102400, 45540, 40576, 371369},
    {"store-under-stall", 32, 288, 913, 64, 226},
};

/** One probed run and what its probe counted. */
struct ProbedRun
{
    std::uint64_t maxIssued = 0;
    std::uint64_t checkedAccesses = 0;
    gpu::GpuStats stats;
};

ProbedRun
probedRun(std::string_view name)
{
    gpu::GpuConfig config = gpu::baselineConfig();
    isa::Program program;
    if (name == "store-under-stall") {
        config.numSms = 1;
        config.mshrsPerSm = 1;
        auto parsed = isa::parseAsm(storeUnderStallAsm);
        panic_if(!parsed.ok(), "store_under_stall does not parse");
        program = parsed.value();
    } else {
        program = workload::buildProgram(
            workload::findApp(std::string(name)));
    }
    const analysis::Verdict verdict = analysis::verifyProgram(program);
    panic_if(!verdict.admitted, "%.*s is not admitted",
             static_cast<int>(name.size()), name.data());

    ContractProbe probe(verdict.certificate);
    RunOptions options;
    options.probe = &probe;
    const ExperimentDriver driver(config);
    auto run = driver.runProgramChecked(std::move(program), options);
    panic_if(!run.ok(), "%.*s: %s", static_cast<int>(name.size()),
             name.data(), run.error().message.c_str());
    return {probe.maxIssued(), probe.checkedAccesses(),
            run.value().gpuStats};
}

class ContractPins : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ContractPins, ProbeCountsMatchThePin)
{
    const ContractPin &pin = kContractPins[GetParam()];
    const ProbedRun run = probedRun(pin.name);
    EXPECT_EQ(run.maxIssued, pin.maxIssued) << pin.name;
    EXPECT_EQ(run.checkedAccesses, pin.checkedAccesses) << pin.name;
    EXPECT_EQ(run.stats.cycles, pin.cycles) << pin.name;
    EXPECT_EQ(run.stats.sm.issued, pin.issued) << pin.name;
    EXPECT_EQ(run.stats.sm.frozenSteps, pin.frozenSteps)
        << pin.name << ": a stalled SM did not freeze under the probe";
    EXPECT_GT(run.stats.sm.issueStalls, 0u)
        << pin.name << ": no load stalled, so no retry was probed";
}

TEST(ContractPins, AppFrozenStepsAreTheUnprobedPins)
{
    int apps = 0;
    for (const ContractPin &pin : kContractPins) {
        for (const tests::AppCount &app : tests::kAppFrozenSteps) {
            if (app.abbr == pin.name) {
                EXPECT_EQ(pin.frozenSteps, app.count) << pin.name;
                ++apps;
            }
        }
    }
    EXPECT_EQ(apps + 1, static_cast<int>(std::size(kContractPins)));
}

TEST(ContractPins, StoreUnderStallRetriesThroughThreeTagPhases)
{
    const ProbedRun run = probedRun("store-under-stall");
    EXPECT_EQ(run.stats.sm.issueStalls - run.stats.sm.stallReplays, 3u)
        << run.stats.sm.issueStalls << " stalls, "
        << run.stats.sm.stallReplays << " replayed";
}

INSTANTIATE_TEST_SUITE_P(
    Stalling, ContractPins,
    ::testing::Range<std::size_t>(0, std::size(kContractPins)),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        std::string name(kContractPins[info.param].name);
        std::erase(name, '-');
        return name;
    });

TEST(ContractPins, DISABLED_PrintPins)
{
    for (const ContractPin &pin : kContractPins) {
        const ProbedRun run = probedRun(pin.name);
        std::printf("    {\"%.*s\", %llu, %llu, %llu, %llu, %llu},\n",
                    static_cast<int>(pin.name.size()), pin.name.data(),
                    static_cast<unsigned long long>(run.maxIssued),
                    static_cast<unsigned long long>(run.checkedAccesses),
                    static_cast<unsigned long long>(run.stats.cycles),
                    static_cast<unsigned long long>(run.stats.sm.issued),
                    static_cast<unsigned long long>(
                        run.stats.sm.frozenSteps));
    }
}

} // namespace
} // namespace bvf::core
