/**
 * @file
 * Coder microbenchmarks (google-benchmark).
 *
 * Throughput of the three coders and the bus-invert baseline on
 * warp-sized blocks. The coders are single-gate-depth transforms in
 * hardware; in software they should run at memory bandwidth, which
 * these numbers verify for the simulator's accounting hot path, along
 * with the per-call cost of that path itself: the SECDED check byte and
 * one call of each EnergyAccountant sink callback (onAccess of a full
 * warp-sized block and of a half-masked odd-sized one, onFetch,
 * onNocPacket). The onAccess and onFetch benchmarks run under each
 * counting kernel, so one run prints them side by side; a kernel the
 * host lacks reports an error naming the missing features. The last
 * benchmark times admission's abstract-interpreter fixpoint
 * (analyzeProgram) on three suite kernels.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "analysis/interpreter.hh"
#include "coder/bus_invert.hh"
#include "coder/isa_coder.hh"
#include "coder/nv_coder.hh"
#include "coder/vs_coder.hh"
#include "common/rng.hh"
#include "core/accountant.hh"
#include "core/accountant_kernel.hh"
#include "fault/secded.hh"
#include "isa/encoding.hh"
#include "workload/app_spec.hh"
#include "workload/kernel_builder.hh"

using namespace bvf;

namespace
{

std::vector<Word>
randomBlock(std::size_t n, std::uint64_t seed = 123)
{
    Rng rng(seed);
    std::vector<Word> block(n);
    for (Word &w : block)
        w = rng.nextU32();
    return block;
}

void
BM_NvEncode(benchmark::State &state)
{
    const coder::NvCoder nv;
    auto block = randomBlock(32);
    for (auto _ : state) {
        nv.encodeSpan(block);
        benchmark::DoNotOptimize(block.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_NvEncode);

void
BM_VsEncode(benchmark::State &state)
{
    const coder::VsCoder vs(static_cast<int>(state.range(0)));
    auto block = randomBlock(32);
    for (auto _ : state) {
        vs.encode(block);
        benchmark::DoNotOptimize(block.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_VsEncode)->Arg(0)->Arg(21);

void
BM_IsaEncode(benchmark::State &state)
{
    const coder::IsaCoder isa_coder(
        isa::paperIsaMask(isa::GpuArch::Pascal));
    Rng rng(7);
    std::vector<Word64> instrs(64);
    for (Word64 &w : instrs)
        w = rng.nextU64();
    for (auto _ : state) {
        isa_coder.encodeSpan(instrs);
        benchmark::DoNotOptimize(instrs.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_IsaEncode);

void
BM_BusInvert(benchmark::State &state)
{
    coder::BusInvertChannel channel(8);
    Rng rng(99);
    std::vector<Word> flit(8);
    std::vector<bool> parity;
    for (auto _ : state) {
        for (Word &w : flit)
            w = rng.nextU32();
        benchmark::DoNotOptimize(channel.encode(flit, parity));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_BusInvert);

void
BM_RoundTrip(benchmark::State &state)
{
    const coder::NvCoder nv;
    const coder::VsCoder vs(21);
    auto block = randomBlock(32);
    for (auto _ : state) {
        nv.encodeSpan(block);
        vs.encode(block);
        vs.decode(block);
        nv.decodeSpan(block);
        benchmark::DoNotOptimize(block.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_RoundTrip);

void
BM_SecdedEncode(benchmark::State &state)
{
    Rng rng(5);
    std::vector<Word64> words(64);
    for (Word64 &w : words)
        w = rng.nextU64();
    for (auto _ : state) {
        std::uint32_t acc = 0;
        for (const Word64 w : words)
            acc += fault::secdedEncode(w);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_SecdedEncode);

/**
 * Switch @p acc to the kernel benchmark argument @p arg indexes, or
 * mark @p state skipped if the host lacks it. Returns the kernel name,
 * or nullptr when skipped.
 */
const char *
selectKernel(benchmark::State &state, core::EnergyAccountant &acc,
             std::int64_t arg)
{
    const auto kernel =
        core::detail::allKernels.at(static_cast<std::size_t>(arg));
    const std::string &missing = core::detail::missingFeatures(kernel);
    if (!missing.empty()) {
        state.SkipWithError(("host lacks " + missing).c_str());
        return nullptr;
    }
    core::detail::KernelSelect::use(acc, kernel);
    return core::detail::kernelName(kernel);
}

/** Argument values of every kernel: its index in allKernels. */
const std::vector<std::int64_t> allKernelArgs = [] {
    std::vector<std::int64_t> args(core::detail::allKernels.size());
    for (std::size_t i = 0; i < args.size(); ++i)
        args[i] = static_cast<std::int64_t>(i);
    return args;
}();

std::map<coder::UnitId, std::uint64_t>
accountantCapacities()
{
    std::map<coder::UnitId, std::uint64_t> caps;
    for (const coder::UnitId unit : coder::allUnits()) {
        if (unit != coder::UnitId::Noc)
            caps[unit] = 1 << 20;
    }
    return caps;
}

/**
 * One 32-word, full-mask access per iteration; args: ecc, unit, kernel.
 */
void
BM_AccountantOnAccess(benchmark::State &state)
{
    core::AccountantOptions opts;
    opts.eccAccounting = state.range(0) != 0;
    const auto unit = static_cast<coder::UnitId>(state.range(1));
    core::EnergyAccountant acc(accountantCapacities(), opts);
    const char *kernel = selectKernel(state, acc, state.range(2));
    if (!kernel)
        return;
    const auto block = randomBlock(32);
    std::uint64_t cycle = 0;
    for (auto _ : state) {
        acc.onAccess(unit, sram::AccessType::Read, block, 0xffffffffu,
                     ++cycle);
    }
    state.SetLabel(coder::unitName(unit) + (opts.eccAccounting ? "+ecc" : "")
                   + " " + kernel);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AccountantOnAccess)
    ->ArgsProduct({{0, 1},
                   {static_cast<int>(coder::UnitId::Reg),
                    static_cast<int>(coder::UnitId::Sme),
                    static_cast<int>(coder::UnitId::L2)},
                   allKernelArgs});

/**
 * One 21-word access with every other lane active per iteration: each
 * SECDED pair is half live and the last word has no partner (the pivot
 * lane 21 is past the end, so VS pivots on word 0). Args: ecc, unit,
 * kernel.
 */
void
BM_AccountantOnAccessPartial(benchmark::State &state)
{
    core::AccountantOptions opts;
    opts.eccAccounting = state.range(0) != 0;
    const auto unit = static_cast<coder::UnitId>(state.range(1));
    core::EnergyAccountant acc(accountantCapacities(), opts);
    const char *kernel = selectKernel(state, acc, state.range(2));
    if (!kernel)
        return;
    const auto block = randomBlock(21);
    std::uint64_t cycle = 0;
    for (auto _ : state) {
        acc.onAccess(unit, sram::AccessType::Write, block, 0x55555555u,
                     ++cycle);
    }
    state.SetLabel(coder::unitName(unit) + (opts.eccAccounting ? "+ecc" : "")
                   + " " + kernel);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AccountantOnAccessPartial)
    ->ArgsProduct({{0, 1},
                   {static_cast<int>(coder::UnitId::Reg),
                    static_cast<int>(coder::UnitId::L2)},
                   allKernelArgs});

/**
 * One fetch of random instructions per iteration; args: ecc, count (1
 * is the IFB read behind every instruction an SM runs, 16 an L2
 * instruction line), kernel.
 */
void
BM_AccountantOnFetch(benchmark::State &state)
{
    core::AccountantOptions opts;
    opts.eccAccounting = state.range(0) != 0;
    core::EnergyAccountant acc(accountantCapacities(), opts);
    const char *kernel = selectKernel(state, acc, state.range(2));
    if (!kernel)
        return;
    Rng rng(11);
    std::vector<Word64> instrs(static_cast<std::size_t>(state.range(1)));
    for (Word64 &w : instrs)
        w = rng.nextU64();
    std::uint64_t cycle = 0;
    for (auto _ : state) {
        acc.onFetch(coder::UnitId::L1I, sram::AccessType::Read, instrs,
                    ++cycle);
    }
    state.SetLabel(std::string(opts.eccAccounting ? "ecc " : "") + kernel);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AccountantOnFetch)
    ->ArgsProduct({{0, 1}, {1, 16}, allKernelArgs});

/**
 * One packet per iteration on one channel, alternating two payloads so
 * the wires toggle; args: payload words (8 is one flit, 32 a line),
 * instruction stream.
 */
void
BM_AccountantOnNocPacket(benchmark::State &state)
{
    core::EnergyAccountant acc(accountantCapacities());
    const auto n = static_cast<std::size_t>(state.range(0));
    const bool instr_stream = state.range(1) != 0;
    const std::array<std::vector<Word>, 2> payloads = {randomBlock(n),
                                                       randomBlock(n, 124)};
    std::uint64_t cycle = 0;
    for (auto _ : state) {
        ++cycle;
        acc.onNocPacket(0, payloads[cycle & 1], instr_stream, cycle);
    }
    state.SetLabel(instr_stream ? "instr" : "data");
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AccountantOnNocPacket)->ArgsProduct({{8, 32}, {0, 1}});

/**
 * One analyzeProgram per iteration; arg indexes NN (42 instructions),
 * HIS (70) and FFT (75, the suite's most worklist steps).
 */
void
BM_AnalyzeProgram(benchmark::State &state)
{
    static const char *const kApps[] = {"NN", "HIS", "FFT"};
    const char *abbr = kApps[state.range(0)];
    const isa::Program program =
        workload::buildProgram(workload::findApp(abbr));
    std::uint64_t steps = 0;
    for (auto _ : state) {
        const analysis::AnalysisResult result =
            analysis::analyzeProgram(program);
        steps = result.steps;
        benchmark::DoNotOptimize(steps);
    }
    state.SetLabel(abbr);
    state.counters["steps"] = static_cast<double>(steps);
    state.counters["ns_per_step"] = benchmark::Counter(
        static_cast<double>(steps) * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_AnalyzeProgram)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
