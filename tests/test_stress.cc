/**
 * @file
 * Stress tests: extreme machine configurations and launch shapes that
 * exercise structural-stall, queueing and tail paths of the simulator.
 * Every run must still terminate, conserve its invariants, and produce
 * scheduler-independent architectural results.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/experiment.hh"
#include "gpu/gpu.hh"
#include "workload/kernel_builder.hh"

namespace bvf::gpu
{
namespace
{

workload::AppSpec
smallApp(const char *abbr)
{
    workload::AppSpec spec = workload::findApp(abbr);
    spec.gridBlocks = std::min(spec.gridBlocks, 8);
    spec.loopIters = std::min(spec.loopIters, 3);
    return spec;
}

TEST(Stress, SingleMshrMachineCompletes)
{
    // One MSHR per SM: every second miss structurally stalls and
    // replays. The run must still finish with correct results.
    GpuConfig config = baselineConfig();
    config.mshrsPerSm = 1;
    sram::NullSink sink;
    Gpu gpu(config, workload::buildProgram(smallApp("ATA")), sink);
    const auto stats = gpu.run();
    EXPECT_GT(stats.sm.issued, 0u);
}

TEST(Stress, SingleMshrMatchesManyMshrResults)
{
    const auto spec = smallApp("GES");
    std::vector<Word> few_mem, many_mem;
    {
        GpuConfig config = baselineConfig();
        config.mshrsPerSm = 1;
        sram::NullSink sink;
        Gpu gpu(config, workload::buildProgram(spec), sink);
        gpu.run();
        few_mem = gpu.program().global;
    }
    {
        GpuConfig config = baselineConfig();
        config.mshrsPerSm = 64;
        sram::NullSink sink;
        Gpu gpu(config, workload::buildProgram(spec), sink);
        gpu.run();
        many_mem = gpu.program().global;
    }
    EXPECT_EQ(few_mem, many_mem);
}

TEST(Stress, TinyCachesThrash)
{
    GpuConfig config = baselineConfig();
    config.l1dBytes = 1024; // 2 sets x 4 ways
    config.l1iBytes = 512;
    config.l2BytesPerBank = 4 * 1024;
    sram::NullSink sink;
    Gpu gpu(config, workload::buildProgram(smallApp("SYR")), sink);
    const auto stats = gpu.run();
    EXPECT_GT(stats.l2Misses, 0u);
}

TEST(Stress, OneDramChannelSerializes)
{
    GpuConfig config = baselineConfig();
    config.dramChannels = 1;
    sram::NullSink sink;
    Gpu gpu(config, workload::buildProgram(smallApp("ATA")), sink);
    const auto one = gpu.run();

    GpuConfig wide = baselineConfig();
    sram::NullSink sink2;
    Gpu gpu2(wide, workload::buildProgram(smallApp("ATA")), sink2);
    const auto six = gpu2.run();
    EXPECT_GE(one.cycles, six.cycles);
}

TEST(Stress, MoreBlocksThanResidencyQueues)
{
    // One SM with 8 warp slots and 4-warp blocks: only two blocks fit
    // at a time; the rest must launch as slots drain.
    GpuConfig config = baselineConfig();
    config.numSms = 1;
    config.maxWarpsPerSm = 8;
    workload::AppSpec spec = smallApp("TRI");
    spec.gridBlocks = 10;
    sram::NullSink sink;
    Gpu gpu(config, workload::buildProgram(spec), sink);
    const auto stats = gpu.run();
    const auto warps = 10u * 4u;
    EXPECT_EQ(stats.sm.issued % warps, 0u);
}

TEST(Stress, TailWarpBlocks)
{
    // 96 threads/block -> 3 warps, none partial; 128-thread machines
    // also handle blocks whose last warp is partial via existMask.
    workload::AppSpec spec = smallApp("NN"); // 96 threads per block
    sram::NullSink sink;
    Gpu gpu(baselineConfig(), workload::buildProgram(spec), sink);
    EXPECT_GT(gpu.run().sm.issued, 0u);
}

TEST(Stress, SingleWarpMachine)
{
    GpuConfig config = baselineConfig();
    config.numSms = 1;
    config.maxWarpsPerSm = 4;
    workload::AppSpec spec = smallApp("NQU");
    spec.gridBlocks = 1;
    spec.blockThreads = 32;
    sram::NullSink sink;
    Gpu gpu(config, workload::buildProgram(spec), sink);
    EXPECT_GT(gpu.run().cycles, 0u);
}

TEST(Stress, WarpSlotsOutsideTheReadyMaskAreRejected)
{
    // An SM's ready set is one 64-bit mask.
    for (int warps : {0, 65}) {
        GpuConfig config = baselineConfig();
        config.maxWarpsPerSm = warps;
        sram::NullSink sink;
        std::string message;
        try {
            ScopedFatalTrap trap;
            Gpu gpu(config, workload::buildProgram(smallApp("ATA")), sink);
        } catch (const FatalError &e) {
            message = e.what();
        }
        EXPECT_NE(message.find("outside [1, 64]"), std::string::npos)
            << warps << " warp slots: " << message;
    }
}

TEST(Stress, SixtyFourWarpSlotsComplete)
{
    // Slot 63 is the mask's top bit.
    GpuConfig config = baselineConfig();
    config.numSms = 1;
    config.maxWarpsPerSm = 64;
    workload::AppSpec spec = smallApp("ATA");
    spec.gridBlocks = 20;
    sram::NullSink sink;
    Gpu gpu(config, workload::buildProgram(spec), sink);
    const auto stats = gpu.run();
    EXPECT_EQ(stats.sm.issued % (20u * 4u), 0u);
}

TEST(Stress, AccountingSurvivesExtremeConfig)
{
    GpuConfig config = baselineConfig();
    config.mshrsPerSm = 2;
    config.l1dBytes = 2048;
    config.dramChannels = 2;
    core::ExperimentDriver driver(config);
    const auto run = driver.runApp(smallApp("BFS"));
    // Scenario bit-volume conservation must hold under heavy replay.
    using coder::Scenario;
    const auto &acc = run.accountant->unitAccount(coder::UnitId::Reg);
    EXPECT_EQ(acc.stats(Scenario::Baseline).reads.bits(),
              acc.stats(Scenario::AllCoders).reads.bits());
    EXPECT_GT(acc.stats(Scenario::Baseline).reads.bits(), 0u);
}

} // namespace
} // namespace bvf::gpu
