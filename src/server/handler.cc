/**
 * @file
 * Request handler implementation.
 */

#include "server/handler.hh"

#include <exception>
#include <tuple>
#include <type_traits>

#include "coder/bvf_space.hh"
#include "coder/isa_coder.hh"
#include "coder/nv_coder.hh"
#include "coder/vs_coder.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "core/contract.hh"
#include "core/experiment.hh"
#include "isa/encoding.hh"
#include "server/static_answers.hh"
#include "workload/app_spec.hh"

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
    return staticQuery(req.query);
}

Result<StaticAdviceResponse>
respond(const StaticAdviceRequest &req, KernelStore &)
{
    return staticAdvice(req.query);
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
