/**
 * @file
 * Coder microbenchmarks (google-benchmark).
 *
 * Throughput of the three coders and the bus-invert baseline on
 * warp-sized blocks. The coders are single-gate-depth transforms in
 * hardware; in software they should run at memory bandwidth, which
 * these numbers verify for the simulator's accounting hot path, along
 * with the per-call cost of that path itself: the SECDED check byte and
 * one EnergyAccountant::onAccess of a full warp-sized block. The last
 * benchmark times admission's abstract-interpreter fixpoint
 * (analyzeProgram) on three suite kernels.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <map>
#include <vector>

#include "analysis/interpreter.hh"
#include "coder/bus_invert.hh"
#include "coder/isa_coder.hh"
#include "coder/nv_coder.hh"
#include "coder/vs_coder.hh"
#include "common/rng.hh"
#include "core/accountant.hh"
#include "fault/secded.hh"
#include "isa/encoding.hh"
#include "workload/app_spec.hh"
#include "workload/kernel_builder.hh"

using namespace bvf;

namespace
{

std::vector<Word>
randomBlock(std::size_t n)
{
    Rng rng(123);
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

/** One 32-word, full-mask access per iteration; args: ecc, unit. */
void
BM_AccountantOnAccess(benchmark::State &state)
{
    std::map<coder::UnitId, std::uint64_t> caps;
    for (const coder::UnitId unit : coder::allUnits()) {
        if (unit != coder::UnitId::Noc)
            caps[unit] = 1 << 20;
    }
    core::AccountantOptions opts;
    opts.eccAccounting = state.range(0) != 0;
    const auto unit = static_cast<coder::UnitId>(state.range(1));
    core::EnergyAccountant acc(caps, opts);
    const auto block = randomBlock(32);
    std::uint64_t cycle = 0;
    for (auto _ : state) {
        acc.onAccess(unit, sram::AccessType::Read, block, 0xffffffffu,
                     ++cycle);
    }
    state.SetLabel(coder::unitName(unit) + (opts.eccAccounting ? "+ecc" : ""));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AccountantOnAccess)
    ->ArgsProduct({{0, 1},
                   {static_cast<int>(coder::UnitId::Reg),
                    static_cast<int>(coder::UnitId::Sme),
                    static_cast<int>(coder::UnitId::L2)}});

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
