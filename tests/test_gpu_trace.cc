/**
 * @file
 * Exactness pins for the cycle model.
 *
 * A hashing AccessSink folds every onAccess, onFetch and onNocPacket,
 * in call order, into one digest and into one sub-digest per unit
 * (NoC packets go to the Noc unit). A run's GpuStats fields and its
 * issue-attempt count, issued + issueStalls, fold into a stats
 * sub-digest, which closes the digest. Every entry runs twice, with an
 * ExecProbe and without, and both runs must match the entry's pin. The
 * probe fires once per issued instruction, never on an MSHR-full retry,
 * and a stalled SM freezes (DESIGN.md §3) under it as without it. The
 * two-level entries run only without a probe: under that scheduler no
 * SM freezes, so they are the unfrozen-replay control.
 * tests/gpu_pins.hh pins the parts of every entry:
 *
 *   - the 58 suite apps at the default configuration (GTO);
 *   - LRR and two-level on the 12 apps of the `stall` benchmark;
 *   - the extreme machines of test_stress (one MSHR, tiny caches, one
 *     DRAM channel, 4 and 8 warp slots, tail-warp blocks), and two aimed
 *     at the MSHR-full retry replay (a small L1D; a store to a stalled
 *     load's hit line);
 *   - 600 seeded tests/random_kernel.hh kernels, in 6 shards.
 *
 * A simulator change that keeps every simulated bit keeps every
 * digest; a mismatch names the units whose sub-digests moved. The
 * pins also hold GpuStats::sm.issueStalls per entry, and per suite app
 * the readyChecks, stallReplays and frozenSteps work counts (see
 * gpu_pins.hh).
 *
 * Re-deriving the pins is for intended model changes only:
 *   build/tests/test_gpu_trace --gtest_also_run_disabled_tests \
 *       --gtest_filter='*PrintPins*'
 * prints the table body of gpu_pins.hh.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "gpu/gpu.hh"
#include "gpu_pins.hh"
#include "isa/asm.hh"
#include "kernel_shards.hh"
#include "random_kernel.hh"
#include "workload/app_spec.hh"
#include "workload/kernel_builder.hh"

namespace bvf::gpu
{
namespace
{

using tests::TracePin;

/** Bijective in @p v for a fixed @p h, so one changed value moves it. */
void
fold(std::uint64_t &h, std::uint64_t v)
{
    h ^= v;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
}

constexpr std::size_t statsPart = coder::numUnits;
constexpr std::uint64_t digestSeed = 0xcbf29ce484222325ULL;

/** A run's digest: the pinned parts, before the stall count. */
struct TraceDigest
{
    std::uint64_t digest = digestSeed;
    std::array<std::uint64_t, tests::tracePinParts> parts{};

    TraceDigest() { parts.fill(digestSeed); }
};

class HashingSink : public sram::AccessSink
{
  public:
    explicit HashingSink(TraceDigest &out) : out_(out) {}

    void
    onAccess(coder::UnitId unit, sram::AccessType type,
             std::span<const Word> block, std::uint32_t activeMask,
             std::uint64_t cycle) override
    {
        record(coder::unitIndex(unit),
               {1, static_cast<std::uint64_t>(type), activeMask, cycle,
                block.size()});
        for (Word w : block)
            both(coder::unitIndex(unit), w);
    }

    void
    onFetch(coder::UnitId unit, sram::AccessType type,
            std::span<const Word64> instrs, std::uint64_t cycle) override
    {
        record(coder::unitIndex(unit),
               {2, static_cast<std::uint64_t>(type), cycle, instrs.size()});
        for (Word64 w : instrs)
            both(coder::unitIndex(unit), w);
    }

    void
    onNocPacket(int channel, std::span<const Word> payload,
                bool instrStream, std::uint64_t cycle) override
    {
        const std::size_t noc = coder::unitIndex(coder::UnitId::Noc);
        record(noc, {3, static_cast<std::uint64_t>(channel),
                     static_cast<std::uint64_t>(instrStream), cycle,
                     payload.size()});
        for (Word w : payload)
            both(noc, w);
    }

  private:
    void
    both(std::size_t part, std::uint64_t v)
    {
        fold(out_.digest, v);
        fold(out_.parts[part], v);
    }

    void
    record(std::size_t part, std::initializer_list<std::uint64_t> values)
    {
        for (std::uint64_t v : values)
            both(part, v);
    }

    TraceDigest &out_;
};

class CountingProbe : public ExecProbe
{
  public:
    void
    onIssue(int, int, const isa::Instruction &, const Warp &,
            std::uint32_t, std::uint64_t) override
    {
        ++calls;
    }

    std::uint64_t calls = 0;
};

/** One traced run: its digest, its statistics and its probe calls. */
struct TraceRun
{
    TraceDigest digest;
    GpuStats stats;
    std::uint64_t probeCalls = 0;
};

/** With @p probed, an ExecProbe counts its calls. */
TraceRun
traceRun(const GpuConfig &config, isa::Program program, bool probed)
{
    TraceRun run;
    HashingSink sink(run.digest);
    CountingProbe probe;
    Gpu gpu(config, std::move(program), sink);
    if (probed)
        gpu.setExecProbe(&probe);
    run.stats = gpu.run();
    run.probeCalls = probe.calls;

    const GpuStats &s = run.stats;
    const std::uint64_t attempts = s.sm.issued + s.sm.issueStalls;
    std::uint64_t &h = run.digest.parts[statsPart];
    for (std::uint64_t v :
         {s.cycles, s.sm.issued, s.sm.fpOps, s.sm.intOps, s.sm.loads,
          s.sm.stores, s.sm.controlOps, s.sm.sharedAccesses,
          s.sm.bankConflictCycles, s.sm.regBankConflictCycles,
          s.sm.idleCycles, s.sm.pivotDivergentWrites, s.l2Hits,
          s.l2Misses, s.noc.packets, s.noc.flits, s.noc.totalLatency,
          s.dramRowHits, s.dramRowMisses, attempts}) {
        fold(h, v);
    }
    fold(run.digest.digest, h);
    return run;
}

/** Several runs folded into one entry (a random-kernel shard). */
void
foldRun(TraceRun &into, const TraceRun &run)
{
    fold(into.digest.digest, run.digest.digest);
    for (std::size_t p = 0; p < tests::tracePinParts; ++p)
        fold(into.digest.parts[p], run.digest.parts[p]);
    into.stats.sm.issued += run.stats.sm.issued;
    into.probeCalls += run.probeCalls;
    into.stats.sm.issueStalls += run.stats.sm.issueStalls;
    into.stats.sm.readyChecks += run.stats.sm.readyChecks;
    into.stats.sm.stallReplays += run.stats.sm.stallReplays;
    into.stats.sm.frozenSteps += run.stats.sm.frozenSteps;
}

// --- the entries -----------------------------------------------------------

workload::AppSpec
smallApp(const char *abbr)
{
    workload::AppSpec spec = workload::findApp(abbr);
    spec.gridBlocks = std::min(spec.gridBlocks, 8);
    spec.loopIters = std::min(spec.loopIters, 3);
    return spec;
}

TraceRun
appRun(const std::string &abbr, SchedulerPolicy policy, bool probed)
{
    GpuConfig config = baselineConfig();
    config.scheduler = policy;
    return traceRun(config, workload::buildProgram(workload::findApp(abbr)),
                    probed);
}

/** The 12 apps of the `stall` benchmark workload. */
const std::vector<std::string> &
stallApps()
{
    static const std::vector<std::string> apps = {
        "BTR", "NN", "NW", "HIS", "SPM", "BFS", "QTC", "LBF", "BH", "MST",
        "SP", "SSP"};
    return apps;
}

struct Machine
{
    const char *name;
    std::function<TraceRun(bool probed)> run;
};

/**
 * Two warps on one SM with one MSHR. Warp 1's load hits line 0x10000
 * (lanes 0-15) and stalls on line 0x10100 (lanes 16-31), because warp
 * 0's load of 0x10200 holds the MSHR. Warp 0 then stores to 0x10000
 * while warp 1 retries. The shared-memory loads only time the steps:
 * warp 1's address arrives before warp 0's store data does.
 */
constexpr const char *storeUnderStallAsm = R"(
.kernel store_under_stall
.launch 1 64
.shared 256
.global 256
    S2R R1, SR_TIDX
    MOV R9, #65536
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
    NOP
    NOP
    NOP
    IADD R3, R2, #0           // wait for the fill
    @P1 LDS R12, [R8 + 0]
    @P2 LDG R6, [R10 + 512]   // warp 0 takes the MSHR
    @P2 LDS R7, [R8 + 0]
    @P1 LDG R4, [R12 + 0]     // warp 1: hit, then MSHR-full
    @P2 STG [R10 + 0], R7     // warp 0 evicts warp 1's hit line
    IADD R5, R4, #0
    EXIT
)";

/** test_stress's extreme machines and launch shapes. */
const std::vector<Machine> &
machines()
{
    static const std::vector<Machine> list = {
        {"single-mshr",
         [](bool probed) {
             GpuConfig config = baselineConfig();
             config.mshrsPerSm = 1;
             return traceRun(config, workload::buildProgram(smallApp("ATA")),
                             probed);
         }},
        {"tiny-caches",
         [](bool probed) {
             GpuConfig config = baselineConfig();
             config.l1dBytes = 1024;
             config.l1iBytes = 512;
             config.l2BytesPerBank = 4 * 1024;
             return traceRun(config, workload::buildProgram(smallApp("SYR")),
                             probed);
         }},
        {"one-dram-channel",
         [](bool probed) {
             GpuConfig config = baselineConfig();
             config.dramChannels = 1;
             return traceRun(config, workload::buildProgram(smallApp("ATA")),
                             probed);
         }},
        {"warps-8",
         [](bool probed) {
             GpuConfig config = baselineConfig();
             config.numSms = 1;
             config.maxWarpsPerSm = 8;
             workload::AppSpec spec = smallApp("TRI");
             spec.gridBlocks = 10;
             return traceRun(config, workload::buildProgram(spec), probed);
         }},
        {"warps-4",
         [](bool probed) {
             GpuConfig config = baselineConfig();
             config.numSms = 1;
             config.maxWarpsPerSm = 4;
             workload::AppSpec spec = smallApp("NQU");
             spec.gridBlocks = 6;
             spec.blockThreads = 32;
             return traceRun(config, workload::buildProgram(spec), probed);
         }},
        {"tail-warps",
         [](bool probed) {
             // 80 threads per block: the third warp has 16 live lanes.
             isa::Program program = workload::buildProgram(smallApp("NN"));
             program.launch.blockThreads = 80;
             return traceRun(baselineConfig(), std::move(program), probed);
         }},
        {"small-l1d",
         [](bool probed) {
             // Other warps' L1D hits interleave with MSHR-full retries,
             // so a retry's LRU re-stamps decide later evictions.
             GpuConfig config = baselineConfig();
             config.numSms = 1;
             config.l1dBytes = 2048;
             config.mshrsPerSm = 2;
             return traceRun(config, workload::buildProgram(smallApp("HIS")),
                             probed);
         }},
        {"store-under-stall",
         [](bool probed) {
             GpuConfig config = baselineConfig();
             config.numSms = 1;
             config.mshrsPerSm = 1;
             auto parsed = isa::parseAsm(storeUnderStallAsm);
             panic_if(!parsed.ok(), "store_under_stall does not parse");
             return traceRun(config, parsed.value(), probed);
         }},
    };
    return list;
}

constexpr std::uint64_t randomSeed = 0x6a0c7e11u;
constexpr int randomKernels = 600;
constexpr int randomShards = 6;

/**
 * Random kernels [begin, end) on one SM with one MSHR, so blocks share
 * an SM and loads contend. Kernels built not to terminate are skipped.
 */
TraceRun
randomRun(tests::KernelShard shard, bool probed)
{
    GpuConfig config = baselineConfig();
    config.numSms = 1;
    config.mshrsPerSm = 1;
    Rng rng(randomSeed);
    TraceRun total;
    for (int k = 0; k < shard.end; ++k) {
        const std::string text = tests::randomKernelAsm(rng);
        if (k < shard.begin || text.find("Lspin") != std::string::npos)
            continue;
        auto parsed = isa::parseAsm(text);
        panic_if(!parsed.ok(), "random kernel %d does not parse", k);
        foldRun(total, traceRun(config, parsed.value(), probed));
    }
    return total;
}

std::string
randomName(tests::KernelShard shard)
{
    return "random/" + std::to_string(shard.begin) + "-"
           + std::to_string(shard.end - 1);
}

// --- checking --------------------------------------------------------------

const TracePin *
findPin(const std::string &name)
{
    for (const TracePin &pin : tests::kTracePins) {
        if (pin.name == name)
            return &pin;
    }
    return nullptr;
}

std::string
partName(std::size_t part)
{
    return part == statsPart
               ? std::string("stats")
               : coder::unitName(static_cast<coder::UnitId>(part));
}

void
expectMatchesPin(const std::string &name, const TraceRun &run)
{
    const TracePin *pin = findPin(name);
    ASSERT_NE(pin, nullptr) << "no pin for " << name;
    std::string moved;
    for (std::size_t p = 0; p < tests::tracePinParts; ++p) {
        if (run.digest.parts[p] != pin->parts[p]) {
            moved += strFormat("\n  %s: pinned %016llx, got %016llx",
                               partName(p).c_str(),
                               static_cast<unsigned long long>(pin->parts[p]),
                               static_cast<unsigned long long>(
                                   run.digest.parts[p]));
        }
    }
    EXPECT_TRUE(moved.empty()) << name << " moved in:" << moved;
    EXPECT_EQ(run.digest.digest, pin->digest)
        << name << ": call order across units moved";
    EXPECT_EQ(run.stats.sm.issueStalls, pin->issueStalls)
        << name << ": MSHR-full load retries moved";
    EXPECT_LE(run.stats.sm.stallReplays, run.stats.sm.issueStalls)
        << name << ": more retries replayed than stalled";
    EXPECT_LE(run.stats.sm.frozenSteps, run.stats.sm.stallReplays)
        << name << ": more frozen steps than replays";
}

/**
 * Check both runs of an entry against its pin; returns the unprobed
 * one. The probe sees each issued instruction once, and both runs do
 * the same work, frozen steps included.
 */
TraceRun
expectBothMatchPin(const std::string &name,
                   const std::function<TraceRun(bool probed)> &run)
{
    const TraceRun probed = run(true);
    expectMatchesPin(name, probed);
    EXPECT_EQ(probed.probeCalls, probed.stats.sm.issued)
        << name << ": the probe missed an issue or saw a retry";
    const TraceRun unprobed = run(false);
    expectMatchesPin(name, unprobed);
    EXPECT_EQ(unprobed.stats.sm.readyChecks, probed.stats.sm.readyChecks)
        << name << ": the probe changed the readiness evaluations";
    EXPECT_EQ(unprobed.stats.sm.stallReplays, probed.stats.sm.stallReplays)
        << name << ": the probe changed the replays";
    EXPECT_EQ(unprobed.stats.sm.frozenSteps, probed.stats.sm.frozenSteps)
        << name << ": the probe changed the frozen steps";
    return unprobed;
}

class GpuTraceApp : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GpuTraceApp, MatchesItsParentDigest)
{
    const workload::AppSpec &spec = workload::evaluationSuite()[GetParam()];
    const TraceRun run =
        expectBothMatchPin("app/" + spec.abbr, [&spec](bool probed) {
            return appRun(spec.abbr, SchedulerPolicy::Gto, probed);
        });
    EXPECT_EQ(run.stats.sm.readyChecks,
              tests::kAppReadyChecks[GetParam()].count)
        << spec.abbr << ": warp readiness evaluations moved";
    EXPECT_EQ(run.stats.sm.stallReplays,
              tests::kAppStallReplays[GetParam()].count)
        << spec.abbr << ": retries replayed from a plan moved";
    EXPECT_EQ(run.stats.sm.frozenSteps,
              tests::kAppFrozenSteps[GetParam()].count)
        << spec.abbr << ": replays made by frozen SMs moved";
}

INSTANTIATE_TEST_SUITE_P(
    Suite, GpuTraceApp,
    ::testing::Range<std::size_t>(0, workload::evaluationSuite().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return workload::evaluationSuite()[info.param].abbr;
    });

TEST(GpuTracePins, ReadyCheckPinsFollowTheSuite)
{
    const auto &suite = workload::evaluationSuite();
    ASSERT_EQ(suite.size(), tests::kAppReadyChecks.size());
    ASSERT_EQ(suite.size(), tests::kAppStallReplays.size());
    ASSERT_EQ(suite.size(), tests::kAppFrozenSteps.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_EQ(suite[i].abbr, tests::kAppReadyChecks[i].abbr);
        EXPECT_EQ(suite[i].abbr, tests::kAppStallReplays[i].abbr);
        EXPECT_EQ(suite[i].abbr, tests::kAppFrozenSteps[i].abbr);
    }
}

// gtest prints a parameter without PrintTo as its raw bytes, and ctest
// names each case by that print. The explicit zero word fills what would
// be padding after `policy`, so the name is the same on every build.
struct SchedEntry
{
    SchedulerPolicy policy;
    std::uint32_t zero;
    std::string abbr;
};

std::string
schedKey(SchedulerPolicy policy)
{
    return policy == SchedulerPolicy::Lrr ? "lrr" : "two-level";
}

std::vector<SchedEntry>
schedEntries()
{
    std::vector<SchedEntry> out;
    for (SchedulerPolicy policy :
         {SchedulerPolicy::Lrr, SchedulerPolicy::TwoLevel}) {
        for (const std::string &abbr : stallApps())
            out.push_back({policy, 0, abbr});
    }
    return out;
}

class GpuTraceSched : public ::testing::TestWithParam<SchedEntry>
{
};

TEST_P(GpuTraceSched, MatchesItsParentDigest)
{
    const SchedEntry &e = GetParam();
    const std::string name = schedKey(e.policy) + "/" + e.abbr;
    if (e.policy == SchedulerPolicy::Lrr) {
        expectBothMatchPin(name, [&e](bool probed) {
            return appRun(e.abbr, e.policy, probed);
        });
        return;
    }
    // Two-level's pick rotates its pool, so no SM may freeze: every
    // retry is replayed by a full step, the control for the frozen ones.
    const TraceRun run = appRun(e.abbr, e.policy, false);
    expectMatchesPin(name, run);
    EXPECT_EQ(run.stats.sm.frozenSteps, 0u) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, GpuTraceSched, ::testing::ValuesIn(schedEntries()),
    [](const ::testing::TestParamInfo<SchedEntry> &info) {
        return (info.param.policy == SchedulerPolicy::Lrr ? "LRR_"
                                                          : "TwoLevel_")
               + info.param.abbr;
    });

class GpuTraceMachine : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GpuTraceMachine, MatchesItsParentDigest)
{
    const Machine &m = machines()[GetParam()];
    expectBothMatchPin(std::string("machine/") + m.name, m.run);
}

INSTANTIATE_TEST_SUITE_P(
    Machines, GpuTraceMachine,
    ::testing::Range<std::size_t>(0, machines().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        std::string name = machines()[info.param].name;
        std::erase(name, '-');
        return name;
    });

const Machine &
findMachine(std::string_view name)
{
    for (const Machine &m : machines()) {
        if (m.name == name)
            return m;
    }
    panic("no machine %.*s", static_cast<int>(name.size()), name.data());
}

TEST(GpuTraceReplay, InvalidatingStoreEndsTheReplay)
{
    // Three full tag phases: the first stall; the retry after warp 0's
    // store evicts the recorded hit line; the retry after warp 0's fill
    // frees the MSHR, where 0x10000 misses and takes it. Every other
    // retry is a replay. Replaying past the store would make it two.
    const TraceRun run = findMachine("store-under-stall").run(false);
    EXPECT_EQ(run.stats.sm.issueStalls - run.stats.sm.stallReplays, 3u)
        << run.stats.sm.issueStalls << " stalls, "
        << run.stats.sm.stallReplays << " replayed";
}

class GpuTraceRandom : public ::testing::TestWithParam<tests::KernelShard>
{
};

TEST_P(GpuTraceRandom, MatchesItsParentDigest)
{
    const tests::KernelShard shard = GetParam();
    expectBothMatchPin(randomName(shard), [shard](bool probed) {
        return randomRun(shard, probed);
    });
}

INSTANTIATE_TEST_SUITE_P(
    Shards, GpuTraceRandom,
    ::testing::ValuesIn(tests::kernelShards(randomKernels, randomShards)),
    tests::kernelShardName);

// --- re-deriving -----------------------------------------------------------

void
printPin(const std::string &name, const TraceRun &run)
{
    std::printf("    {\"%s\", 0x%016llxULL,\n     {", name.c_str(),
                static_cast<unsigned long long>(run.digest.digest));
    for (std::size_t p = 0; p < tests::tracePinParts; ++p) {
        std::printf("0x%016llxULL%s",
                    static_cast<unsigned long long>(run.digest.parts[p]),
                    p + 1 == tests::tracePinParts ? ""
                    : p % 2 == 1                  ? ",\n      "
                                                  : ", ");
    }
    std::printf("},\n     %llu},\n",
                static_cast<unsigned long long>(run.stats.sm.issueStalls));
}

/** Print one per-app work-count table of gpu_pins.hh, and its total. */
void
printCounts(const char *table, const char *total,
            const std::vector<std::pair<std::string, std::uint64_t>> &counts)
{
    std::printf("%s:\n", table);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        std::printf("{\"%s\", %llu},%s", counts[i].first.c_str(),
                    static_cast<unsigned long long>(counts[i].second),
                    i % 3 == 2 ? "\n" : " ");
        sum += counts[i].second;
    }
    std::printf("\n%s = %llu\n", total,
                static_cast<unsigned long long>(sum));
}

TEST(GpuTracePins, DISABLED_PrintPins)
{
    std::vector<std::pair<std::string, std::uint64_t>> ready;
    std::vector<std::pair<std::string, std::uint64_t>> replays;
    std::vector<std::pair<std::string, std::uint64_t>> frozen;
    std::printf("kTracePins:\n");
    for (const workload::AppSpec &spec : workload::evaluationSuite()) {
        const TraceRun run = appRun(spec.abbr, SchedulerPolicy::Gto, false);
        ready.emplace_back(spec.abbr, run.stats.sm.readyChecks);
        replays.emplace_back(spec.abbr, run.stats.sm.stallReplays);
        frozen.emplace_back(spec.abbr, run.stats.sm.frozenSteps);
        printPin("app/" + spec.abbr, run);
    }
    for (const SchedEntry &e : schedEntries()) {
        printPin(schedKey(e.policy) + "/" + e.abbr,
                 appRun(e.abbr, e.policy, false));
    }
    for (const Machine &m : machines())
        printPin(std::string("machine/") + m.name, m.run(false));
    for (const tests::KernelShard &shard :
         tests::kernelShards(randomKernels, randomShards)) {
        printPin(randomName(shard), randomRun(shard, false));
    }
    printCounts("kAppReadyChecks", "kSuiteReadyChecks", ready);
    printCounts("kAppStallReplays", "kSuiteStallReplays", replays);
    printCounts("kAppFrozenSteps", "kSuiteFrozenSteps", frozen);
}

} // namespace
} // namespace bvf::gpu
