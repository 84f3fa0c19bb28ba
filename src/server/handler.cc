/**
 * @file
 * Request handler implementation.
 */

#include "server/handler.hh"

#include <exception>
#include <tuple>
#include <type_traits>

#include "analysis/advisor.hh"
#include "analysis/interpreter.hh"
#include "coder/bvf_space.hh"
#include "coder/isa_coder.hh"
#include "coder/nv_coder.hh"
#include "coder/vs_coder.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "core/contract.hh"
#include "core/experiment.hh"
#include "core/static_check.hh"
#include "isa/encoding.hh"
#include "workload/kernel_builder.hh"

namespace bvf::server
{

namespace
{

/**
 * Run @p body with fatal() trapped; any failure becomes an
 * ErrorResponse frame instead of an exception or process exit.
 */
template <typename Fn>
Frame
guarded(Fn &&body)
{
    try {
        ScopedFatalTrap trap;
        return body();
    } catch (const FatalError &e) {
        return errorFrame(Error{ErrorCode::InvalidArgument, e.what()});
    } catch (const std::exception &e) {
        return errorFrame(Error{ErrorCode::Failed, e.what()});
    }
}

StaticQueryResponse::Bound
wireBound(const analysis::DensityBound &b)
{
    return {b.lo, b.hi, static_cast<std::uint8_t>(b.any ? 1 : 0)};
}

// --- One respond() per request struct -----------------------------------

Result<Ping>
respond(const Ping &ping, KernelStore &)
{
    return ping;
}

Result<EvalCoderResponse>
respond(const EvalCoderRequest &req, KernelStore &)
{
    EvalCoderResponse resp;
    resp.encoded = req.words;
    resp.totalBits = req.words.size() * 64;
    for (const std::uint64_t w : req.words)
        resp.onesBefore += static_cast<std::uint64_t>(hammingWeight64(w));

    if (req.coder == CoderKind::Isa) {
        const Word64 mask =
            req.isaMask ? req.isaMask
                        : isa::paperIsaMask(evalConfigOf(req).arch);
        const coder::IsaCoder isaCoder(mask);
        isaCoder.encodeSpan(resp.encoded);
    } else if (req.coder != CoderKind::Identity) {
        // 32-bit coders see each u64 as two little-endian words.
        std::vector<Word> words;
        words.reserve(req.words.size() * 2);
        for (const std::uint64_t w : req.words) {
            words.push_back(static_cast<Word>(w));
            words.push_back(static_cast<Word>(w >> 32));
        }
        if (req.coder == CoderKind::Nv) {
            coder::NvCoder{}.encodeSpan(words);
        } else {
            coder::VsCoder(static_cast<int>(req.vsPivot)).encode(words);
        }
        for (std::size_t i = 0; i < resp.encoded.size(); ++i) {
            resp.encoded[i] =
                static_cast<std::uint64_t>(words[2 * i])
                | (static_cast<std::uint64_t>(words[2 * i + 1]) << 32);
        }
    }

    for (const std::uint64_t w : resp.encoded)
        resp.onesAfter += static_cast<std::uint64_t>(hammingWeight64(w));
    return resp;
}

Result<BitDensityResponse>
respond(const BitDensityRequest &req, KernelStore &)
{
    const workload::AppSpec &spec = workload::findApp(req.query.abbr);
    const core::EvalConfig config = evalConfigOf(req);
    const core::ExperimentDriver driver(config.machine());
    const auto run = driver.runAppChecked(spec, config.runOptions());
    if (!run.ok())
        return run.error();

    BitDensityResponse resp;
    resp.cycles = run.value().gpuStats.cycles;
    resp.instructions = run.value().gpuStats.sm.issued;
    const core::EnergyAccountant &acc = *run.value().accountant;
    for (const coder::UnitId unit : coder::allUnits()) {
        if (unit == coder::UnitId::Noc)
            continue;
        BitDensityResponse::Unit u;
        u.unit = static_cast<std::uint8_t>(unit);
        bool any = false;
        const sram::UnitAccount &account = acc.unitAccount(unit);
        for (const coder::Scenario s : coder::allScenarios) {
            const sram::UnitScenarioStats &stats = account.stats(s);
            BitStats all = stats.reads;
            all.merge(stats.writes);
            if (all.bits())
                any = true;
            u.density[static_cast<std::size_t>(coder::scenarioIndex(s))] =
                all.oneRatio();
        }
        if (any)
            resp.units.push_back(u);
    }
    for (const coder::Scenario s : coder::allScenarios) {
        const auto &noc = acc.noc(s);
        resp.nocDensity[static_cast<std::size_t>(coder::scenarioIndex(s))] =
            noc.payloadBits ? static_cast<double>(noc.payloadOnes)
                                  / static_cast<double>(noc.payloadBits)
                            : 0.0;
    }
    return resp;
}

Result<ChipEnergyResponse>
respond(const ChipEnergyRequest &req, KernelStore &)
{
    const core::EvalConfig config = evalConfigOf(req);
    if (auto servable = checkServable(config); !servable.ok())
        return servable.error();

    const workload::AppSpec &spec = workload::findApp(req.query.abbr);
    const core::ExperimentDriver driver(config.machine());
    const auto run = driver.runAppChecked(spec, config.runOptions());
    if (!run.ok())
        return run.error();

    const core::AppEnergy energy =
        driver.evaluate(run.value(), config.pricing());

    ChipEnergyResponse resp;
    resp.cycles = run.value().gpuStats.cycles;
    resp.instructions = run.value().gpuStats.sm.issued;
    resp.chipEnergy = energy.chipTotals();
    resp.bvfUnitsEnergy = energy.bvfUnitsTotals();
    return resp;
}

Result<StaticQueryResponse>
respond(const StaticQueryRequest &req, KernelStore &)
{
    const workload::AppSpec &spec = workload::findApp(req.query.abbr);
    const core::EvalConfig eval = evalConfigOf(req);
    const gpu::GpuConfig config = eval.machine();
    const isa::Program program = workload::buildProgram(spec);

    Word64 isaMask = 0;
    if (eval.dynamicIsa) {
        const isa::InstructionEncoder encoder(config.arch);
        isaMask = isa::extractPreferenceMask(encoder.encode(program.body));
    }
    const core::StaticReport report =
        core::analyzeStatic(program, config, isaMask, eval.pivot);

    StaticQueryResponse resp;
    resp.bestStatic = static_cast<std::uint8_t>(
        coder::scenarioIndex(report.prediction.bestStatic));
    for (const auto &[unit, bounds] : report.prediction.units) {
        StaticQueryResponse::Unit u;
        u.unit = static_cast<std::uint8_t>(unit);
        for (std::size_t i = 0; i < kScenarioSlots; ++i)
            u.bounds[i] = wireBound(bounds[i]);
        resp.units.push_back(u);
    }
    for (std::size_t i = 0; i < kScenarioSlots; ++i)
        resp.noc[i] = wireBound(report.prediction.noc[i]);
    return resp;
}

Result<StaticAdviceResponse>
respond(const StaticAdviceRequest &req, KernelStore &)
{
    const workload::AppSpec &spec = workload::findApp(req.query.abbr);
    const gpu::GpuConfig config = evalConfigOf(req).machine();
    const isa::Program program = workload::buildProgram(spec);

    analysis::AdvisorOptions opts;
    opts.arch = config.arch;
    opts.lineBytes = config.lineBytes;
    const analysis::StaticAdvice advice = analysis::adviseProgram(
        program, analysis::analyzeProgram(program), opts);

    StaticAdviceResponse resp;
    resp.bestPivot = static_cast<std::uint8_t>(advice.pivot.bestPivot);
    resp.provenSlack = advice.pivot.provenSlack;
    resp.affineSources =
        static_cast<std::uint32_t>(advice.pivot.affineSources);
    resp.totalSources = static_cast<std::uint32_t>(advice.pivot.totalSources);
    for (std::size_t p = 0; p < 32; ++p) {
        resp.pivotBounds[p] = wireBound(advice.pivot.bounds[p]);
        resp.pivotScores[p] = advice.pivot.score[p];
    }
    resp.defaultMask = advice.isa.defaultMask;
    resp.specializedMask = advice.isa.specializedMask;
    const auto any =
        static_cast<std::uint8_t>(advice.isa.anyInstruction ? 1 : 0);
    resp.defaultDensity = {advice.isa.defaultDensity.lo,
                           advice.isa.defaultDensity.hi, any};
    resp.specializedDensity = {advice.isa.specializedDensity.lo,
                               advice.isa.specializedDensity.hi, any};
    resp.bestScenario =
        static_cast<std::uint8_t>(coder::scenarioIndex(advice.bestScenario));
    for (const analysis::UnitPick &pick : advice.unitPicks) {
        StaticAdviceResponse::UnitPick u;
        u.unit = static_cast<std::uint8_t>(pick.unit);
        u.pick = static_cast<std::uint8_t>(coder::scenarioIndex(pick.pick));
        u.proven = static_cast<std::uint8_t>(pick.proven ? 1 : 0);
        u.nv = wireBound(pick.nv);
        u.vs = wireBound(pick.vs);
        resp.unitPicks.push_back(u);
    }
    return resp;
}

Result<SubmitKernelResponse>
respond(const SubmitKernelRequest &req, KernelStore &kernels)
{
    const auto outcome = kernels.submit(req.bytecode, req.optimize != 0);
    if (!outcome.ok())
        return outcome.error();
    const SubmitOutcome &sub = outcome.value();

    SubmitKernelResponse resp;
    resp.admitted = sub.admitted ? 1 : 0;
    resp.digest = sub.digest;
    resp.optimizeRequested = req.optimize;
    resp.optimized = sub.optimized ? 1 : 0;
    resp.optimizedDigest = sub.optimizedDigest;
    resp.tripBound = sub.certificate.warpTripBound;
    resp.globalLo = sub.certificate.global.lo;
    resp.globalHi = sub.certificate.global.hi;
    for (const analysis::Rejection &rej : sub.rejections) {
        if (resp.rejections.size() >= kMaxWireRejections)
            break;
        SubmitKernelResponse::WireRejection wire;
        wire.reason = static_cast<std::uint8_t>(rej.reason);
        wire.pc = static_cast<std::uint32_t>(rej.pc);
        wire.message = rej.message.substr(0, kMaxString);
        resp.rejections.push_back(std::move(wire));
    }
    return resp;
}

Result<EvalSubmittedResponse>
respond(const EvalSubmittedRequest &req, KernelStore &kernels)
{
    const core::EvalConfig config = evalConfigOf(req);
    if (auto servable = checkServable(config); !servable.ok())
        return servable.error();
    const auto stored = kernels.find(req.digest);
    if (!stored) {
        return Error{ErrorCode::InvalidArgument,
                     strFormat("no admitted kernel under digest '%s'",
                               req.digest.c_str())};
    }

    const core::ExperimentDriver driver(config.machine());

    // The certificate is enforced while the kernel runs: the probe
    // fatal()s -- trapped by guarded() -- on any trip-count or
    // footprint escape, which would be a verifier soundness bug.
    core::ContractProbe probe(stored->certificate);
    core::RunOptions options = config.runOptions();
    options.probe = &probe;
    // A certificate proving uniform control flow unlocks the SM's
    // specialized dispatch loop (results are byte-identical).
    options.uniformDispatch = stored->certificate.uniformControlFlow;

    const auto run = driver.runProgramChecked(stored->program, options);
    if (!run.ok())
        return run.error();

    const core::AppEnergy energy =
        driver.evaluate(run.value(), config.pricing());

    EvalSubmittedResponse resp;
    resp.cycles = run.value().gpuStats.cycles;
    resp.instructions = run.value().gpuStats.sm.issued;
    resp.maxWarpIssue = probe.maxIssued();
    resp.checkedAccesses = probe.checkedAccesses();
    resp.chipEnergy = energy.chipTotals();
    resp.bvfUnitsEnergy = energy.bvfUnitsTotals();
    return resp;
}

/**
 * If @p request is @p row's request type, answer it into @p out and
 * return true: decode, respond() under guarded(), encode the response
 * frame.
 */
template <typename Row>
bool
serve(const Row &row, const Frame &request, KernelStore &kernels,
      Frame &out)
{
    if constexpr (std::is_void_v<typename Row::Request>) {
        return false;
    } else {
        if (request.type != row.request)
            return false;
        const auto decoded = Row::Request::decode(request.payload);
        if (!decoded.ok()) {
            // The frame passed its CRC, so a payload that does not
            // decode is a malformed request, not wire damage. The
            // decoder's Truncated or Corrupt would make the fleet
            // coordinator strike and fail over every worker in turn.
            out = errorFrame(Error{ErrorCode::InvalidArgument,
                                   decoded.error().message});
            return true;
        }
        out = guarded([&] {
            const auto response = respond(decoded.value(), kernels);
            if (!response.ok())
                return errorFrame(response.error());
            return Frame{row.response, response.value().encode()};
        });
        return true;
    }
}

} // namespace

Frame
RequestHandler::handle(const Frame &request) const
{
    Frame out;
    const bool served = std::apply(
        [&](const auto &...row) {
            return (serve(row, request, *kernels_, out) || ...);
        },
        kMessageTable);
    if (served)
        return out;
    return errorFrame(Error{ErrorCode::InvalidArgument,
                            strFormat("frame type %s is not a request",
                                      msgTypeName(request.type).c_str())});
}

} // namespace bvf::server
