/**
 * @file
 * bvf_rtl: emit, co-simulate and measure the generated coder RTL.
 *
 * Subcommands:
 *
 *   bvf_rtl emit [-o DIR] [--arch ...] [--suite-masks]
 *     Write the canonical netlists as structural Verilog-2001: the NV
 *     word coder, the VS block coder for every suite-used pivot (the
 *     register pivot and the cache-line pivot), the ISA coder for the
 *     paper's per-architecture masks and the SECDED(72,64) encoder and
 *     decoder. --suite-masks additionally emits the per-application
 *     specialized ISA masks (deduplicated) extracted from each suite
 *     program's encoded binary. Every file is verified through the
 *     parse round-trip before it is written.
 *
 *   bvf_rtl cosim [--vectors N] [--seed S] [--arch ...] [--pivot N]
 *                 [--dynamic-isa] [--trace FILE] [APP...]
 *     Co-simulate the emitted netlists against the C++ coders: every
 *     word, block and instruction of each application's access stream
 *     is pushed through both, bit-for-bit (no apps and no trace = the
 *     full 58-application suite), then N seeded random vectors per
 *     generator (default 10000) including fault-injected SECDED
 *     codewords. --trace replays a recorded trace file instead of
 *     simulating. Exits 1 on any mismatch.
 *
 *   bvf_rtl stats [--json]
 *     Structural gate statistics per canonical module (counts by gate
 *     type, fanout, critical path) plus the chip-wide XNOR inventory:
 *     netlist-derived, analytic (coder/gate_model.hh) and the paper's
 *     fixed figure.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "coder/gate_model.hh"
#include "coder/vs_coder.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/eval_config.hh"
#include "core/trace.hh"
#include "gpu/gpu.hh"
#include "isa/encoding.hh"
#include "rtl/cosim.hh"
#include "rtl/gen.hh"
#include "rtl/stats.hh"
#include "rtl/verilog.hh"
#include "workload/app_spec.hh"
#include "workload/kernel_builder.hh"

using namespace bvf;

namespace
{

/** Specialized ISA mask of one suite application. */
Word64
appMask(const workload::AppSpec &spec, isa::GpuArch arch)
{
    return isa::kernelPreferenceMask(arch,
                                     workload::buildProgram(spec).body);
}

// --- emit --------------------------------------------------------------

int
runEmit(cli::ArgStream &args, std::string arg)
{
    std::string outDir = "rtl_out";
    isa::GpuArch arch = isa::GpuArch::Pascal;
    bool suiteMasks = false;
    while (args.next(arg)) {
        if (arg == "-o" || arg == "--out")
            outDir = args.value(arg);
        else if (arg == "--arch")
            arch = core::parseSpelling(arg, args.value(arg),
                                       core::kArchSpellings);
        else if (arg == "--suite-masks")
            suiteMasks = true;
        else
            cli::dieUsage("unknown option '" + arg + "' for emit");
    }

    std::vector<rtl::Module> modules;
    modules.push_back(rtl::nvCoderNetlist());
    modules.push_back(rtl::vsCoderNetlist(
        32, coder::VsCoder::defaultRegisterPivot));
    modules.push_back(
        rtl::vsCoderNetlist(32, coder::VsCoder::cacheLinePivot));
    for (const isa::GpuArch a : isa::allGpuArchs())
        modules.push_back(rtl::isaCoderNetlist(isa::paperIsaMask(a)));
    modules.push_back(rtl::secdedEncoderNetlist());
    modules.push_back(rtl::secdedDecoderNetlist());
    if (suiteMasks) {
        std::set<Word64> seen;
        for (const isa::GpuArch a : isa::allGpuArchs())
            seen.insert(isa::paperIsaMask(a));
        for (const auto &spec : workload::evaluationSuite()) {
            const Word64 mask = appMask(spec, arch);
            if (seen.insert(mask).second)
                modules.push_back(rtl::isaCoderNetlist(mask));
        }
    }

    std::error_code ec;
    std::filesystem::create_directories(outDir, ec);
    fatal_if(ec.value() != 0, "cannot create '%s': %s", outDir.c_str(),
             ec.message().c_str());

    for (const rtl::Module &m : modules) {
        const std::string text = rtl::emitVerilog(m);
        // The repo's own syntax check: emitted text must parse back
        // and re-emit byte-identically.
        const auto check = rtl::verilogRoundTrip(text);
        fatal_if(!check.ok(), "%s failed the round-trip check: %s",
                 m.name().c_str(), check.error().message.c_str());
        const std::string path = outDir + "/" + m.name() + ".v";
        std::ofstream out(path, std::ios::binary);
        fatal_if(!out, "cannot open '%s'", path.c_str());
        out << text;
        out.close();
        fatal_if(!out, "write to '%s' failed", path.c_str());
        std::printf("%s: %zu gates\n", path.c_str(), m.gates().size());
    }
    std::printf("emitted %zu modules to %s/\n", modules.size(),
                outDir.c_str());
    return 0;
}

// --- cosim -------------------------------------------------------------

/** Feed one application's access stream straight into the sink. */
void
cosimApp(const workload::AppSpec &spec, rtl::CosimSink &sink,
         isa::GpuArch arch)
{
    isa::Program program = workload::buildProgram(spec);
    gpu::GpuConfig config = gpu::baselineConfig();
    config.arch = arch;
    gpu::Gpu machine(config, std::move(program), sink);
    machine.run();
}

int
runCosim(cli::ArgStream &args, std::string arg)
{
    std::uint64_t vectors = 10000;
    std::uint64_t seed = 1;
    isa::GpuArch arch = isa::GpuArch::Pascal;
    int pivot = coder::VsCoder::defaultRegisterPivot;
    bool dynamicIsa = false;
    std::string traceFile;
    std::vector<std::string> apps;
    while (args.next(arg)) {
        if (arg == "--vectors")
            vectors = cli::parseU64(arg, args.value(arg));
        else if (arg == "--seed")
            seed = cli::parseU64(arg, args.value(arg));
        else if (arg == "--arch")
            arch = core::parseSpelling(arg, args.value(arg),
                                       core::kArchSpellings);
        else if (arg == "--pivot")
            pivot = cli::parseInteger(arg, args.value(arg), 0, 31);
        else if (arg == "--dynamic-isa")
            dynamicIsa = true;
        else if (arg == "--trace")
            traceFile = args.value(arg);
        else if (!arg.empty() && arg[0] == '-')
            cli::dieUsage("unknown option '" + arg + "' for cosim");
        else
            apps.push_back(arg);
    }
    if (!traceFile.empty() && !apps.empty())
        cli::dieUsage("--trace and APP arguments are exclusive");

    rtl::CosimReport total;

    if (!traceFile.empty()) {
        rtl::CosimSink sink(pivot, isa::paperIsaMask(arch));
        std::ifstream in(traceFile, std::ios::binary);
        fatal_if(!in, "cannot open trace '%s'", traceFile.c_str());
        const auto summary = core::replayTrace(in, sink);
        fatal_if(!summary.ok(), "replay of '%s' failed: %s",
                 traceFile.c_str(),
                 summary.error().describe().c_str());
        sink.flush();
        total.merge(sink.report());
        std::printf("%s: %llu records, %llu checks\n", traceFile.c_str(),
                    static_cast<unsigned long long>(
                        summary.value().records),
                    static_cast<unsigned long long>(
                        sink.report().checks));
    } else {
        std::vector<const workload::AppSpec *> specs;
        if (apps.empty()) {
            for (const auto &spec : workload::evaluationSuite())
                specs.push_back(&spec);
        } else {
            for (const auto &abbr : apps)
                specs.push_back(&workload::findApp(abbr));
        }
        for (const workload::AppSpec *spec : specs) {
            // Mirror the accountant's wiring: specialized mask when
            // --dynamic-isa, the paper's Table 2 mask otherwise.
            const Word64 dynMask =
                dynamicIsa ? appMask(*spec, arch) : 0;
            const Word64 mask =
                dynMask != 0 ? dynMask : isa::paperIsaMask(arch);
            rtl::CosimSink sink(pivot, mask);
            cosimApp(*spec, sink, arch);
            sink.flush();
            total.merge(sink.report());
            std::printf("%s: %llu checks, %llu mismatches\n",
                        spec->abbr.c_str(),
                        static_cast<unsigned long long>(
                            sink.report().checks),
                        static_cast<unsigned long long>(
                            sink.report().mismatches));
        }
    }

    if (vectors > 0) {
        const rtl::CosimReport random =
            rtl::cosimRandomVectors(vectors, seed);
        std::printf("random: %llu checks, %llu mismatches\n",
                    static_cast<unsigned long long>(random.checks),
                    static_cast<unsigned long long>(random.mismatches));
        total.merge(random);
    }

    std::printf("cosim total: %llu checks, %llu mismatches\n",
                static_cast<unsigned long long>(total.checks),
                static_cast<unsigned long long>(total.mismatches));
    if (total.mismatches > 0) {
        std::fprintf(stderr, "first mismatch: %s\n",
                     total.firstMismatch.c_str());
        return 1;
    }
    return 0;
}

// --- stats -------------------------------------------------------------

int
runStats(cli::ArgStream &args, std::string arg)
{
    bool json = false;
    while (args.next(arg)) {
        if (arg == "--json")
            json = true;
        else
            cli::dieUsage("unknown option '" + arg + "' for stats");
    }

    std::vector<rtl::Module> modules;
    modules.push_back(rtl::nvCoderNetlist());
    modules.push_back(rtl::vsCoderNetlist(
        32, coder::VsCoder::defaultRegisterPivot));
    modules.push_back(
        rtl::vsCoderNetlist(32, coder::VsCoder::cacheLinePivot));
    modules.push_back(
        rtl::isaCoderNetlist(isa::paperIsaMask(isa::GpuArch::Pascal)));
    modules.push_back(rtl::secdedEncoderNetlist());
    modules.push_back(rtl::secdedDecoderNetlist());

    const gpu::GpuConfig config = gpu::baselineConfig();
    const auto netInv = rtl::netlistXnorInventory(
        config.numSms, config.l2Banks, config.lineBytes,
        coder::VsCoder::defaultRegisterPivot);
    const auto anaInv = coder::gate_model::analyticXnorInventory(
        config.numSms, config.l2Banks, config.lineBytes);

    if (json) {
        std::printf("{\n  \"modules\": [\n");
        bool first = true;
        for (const rtl::Module &m : modules) {
            const auto st = rtl::analyzeModule(m);
            fatal_if(!st.ok(), "analyze %s: %s", m.name().c_str(),
                     st.error().message.c_str());
            std::printf("%s    {\"name\": %s, \"gates\": %llu, "
                        "\"xnor\": %llu, \"maxFanout\": %d, "
                        "\"criticalDepth\": %d}",
                        first ? "" : ",\n",
                        jsonQuote(m.name()).c_str(),
                        static_cast<unsigned long long>(
                            st.value().totalGates),
                        static_cast<unsigned long long>(
                            st.value().count(rtl::GateOp::Xnor)),
                        st.value().maxFanout,
                        st.value().criticalDepth);
            first = false;
        }
        std::printf("\n  ],\n");
        std::printf("  \"chipXnor\": {\"netlist\": %llu, "
                    "\"analytic\": %llu, \"paper\": %llu}\n}\n",
                    static_cast<unsigned long long>(netInv.total()),
                    static_cast<unsigned long long>(anaInv.total()),
                    static_cast<unsigned long long>(
                        coder::gate_model::kPaperXnorGateTotal));
        return 0;
    }

    TextTable table;
    table.header({"Module", "Gates", "XNOR", "Buf", "Const",
                  "MaxFan", "MeanFan", "Depth"});
    for (const rtl::Module &m : modules) {
        const auto st = rtl::analyzeModule(m);
        fatal_if(!st.ok(), "analyze %s: %s", m.name().c_str(),
                 st.error().message.c_str());
        const auto &s = st.value();
        table.row({m.name(), strFormat("%llu",
                                       static_cast<unsigned long long>(
                                           s.totalGates)),
                   strFormat("%llu", static_cast<unsigned long long>(
                                         s.count(rtl::GateOp::Xnor))),
                   strFormat("%llu", static_cast<unsigned long long>(
                                         s.count(rtl::GateOp::Buf))),
                   strFormat("%llu",
                             static_cast<unsigned long long>(
                                 s.count(rtl::GateOp::Const0)
                                 + s.count(rtl::GateOp::Const1))),
                   strFormat("%d", s.maxFanout),
                   strFormat("%.2f", s.meanFanout),
                   strFormat("%d", s.criticalDepth)});
    }
    table.print();

    std::printf("\nchip XNOR inventory (%d SMs, %d banks, %u-byte "
                "lines):\n",
                config.numSms, config.l2Banks, config.lineBytes);
    std::printf("  netlist-derived: %llu (NV %llu, VS reg %llu, VS "
                "cache %llu, ISA %llu)\n",
                static_cast<unsigned long long>(netInv.total()),
                static_cast<unsigned long long>(netInv.nvGates),
                static_cast<unsigned long long>(netInv.vsRegGates),
                static_cast<unsigned long long>(netInv.vsCacheGates),
                static_cast<unsigned long long>(netInv.isaGates));
    std::printf("  analytic model:  %llu (NV %llu, VS %llu, ISA "
                "%llu)\n",
                static_cast<unsigned long long>(anaInv.total()),
                static_cast<unsigned long long>(anaInv.nvGates),
                static_cast<unsigned long long>(anaInv.vsGates),
                static_cast<unsigned long long>(anaInv.isaGates));
    std::printf("  paper figure:    %llu\n",
                static_cast<unsigned long long>(
                    coder::gate_model::kPaperXnorGateTotal));
    return 0;
}

int
run(int argc, char **argv)
{
    cli::ArgStream args(argc, argv);
    std::string arg;
    if (!args.next(arg))
        cli::dieUsage("usage: bvf_rtl emit|cosim|stats [options]");
    if (arg == "emit")
        return runEmit(args, arg);
    if (arg == "cosim")
        return runCosim(args, arg);
    if (arg == "stats")
        return runStats(args, arg);
    cli::dieUsage("unknown subcommand '" + arg
                  + "' (expected emit, cosim or stats)");
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const cli::UsageError &e) {
        return cli::reportUsage("bvf_rtl", e);
    }
}
