/**
 * @file
 * Seeded end-to-end fault scenario implementation.
 *
 * Structure of one run:
 *
 *  1. A fault-free *reference* pass over the same apps, workers and
 *     evaluator establishes the report a serial run would produce.
 *  2. Up to maxPhases *faulty* campaign attempts run with the full
 *     fault schedule live: wire faults from SimNet, worker kills and
 *     restarts on the SimClock, torn/failed journal writes from the
 *     atomic-write hook. Each failed attempt resumes from the campaign
 *     journal it left behind; a journal whose *header* was destroyed
 *     (parseJournal refuses it outright, by design) is removed
 *     between attempts, standing in for the operator the refusal
 *     message tells to intervene.
 *  3. A final *quiet* phase: faults off, everyone restarted, breakers
 *     allowed to cool. This phase must complete and must render the
 *     byte-identical reference report -- anything else is a violation.
 */

#include "sim/scenario.hh"

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <vector>

#include "campaign/journal.hh"
#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "fleet/fleet_campaign.hh"
#include "server/handler.hh"
#include "sim/sim_clock.hh"
#include "sim/sim_net.hh"
#include "workload/app_spec.hh"

namespace bvf::sim
{

namespace fs = std::filesystem;
using server::Frame;
using server::MsgType;

namespace
{

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
hashAbbr(const std::string &abbr)
{
    std::uint64_t h = 0x51e0e7a1ull;
    for (const char c : abbr)
        h = mix64(h ^ static_cast<unsigned char>(c));
    return h;
}

/**
 * The simulated worker's evaluator: a pure function of the app
 * abbreviation. Every worker computing identical bits for the same
 * app is what lets the report's bit-identity check pass -- the same
 * contract the real handler meets via deterministic per-app seeds.
 */
server::ChipEnergyResponse
evalApp(const std::string &abbr)
{
    server::ChipEnergyResponse resp;
    std::uint64_t h = hashAbbr(abbr);
    resp.cycles = 1000 + (h % 1000000);
    h = mix64(h);
    resp.instructions = 500 + (h % 5000000);
    for (std::size_t i = 0; i < server::kScenarioSlots; ++i) {
        h = mix64(h);
        resp.chipEnergy[i] =
            1e-3 * (static_cast<double>(h >> 11) * 0x1p-53);
        h = mix64(h);
        resp.bvfUnitsEnergy[i] =
            1e-4 * (static_cast<double>(h >> 11) * 0x1p-53);
    }
    return resp;
}

bool
knownErrorCode(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Io:
      case ErrorCode::Corrupt:
      case ErrorCode::Truncated:
      case ErrorCode::Unsupported:
      case ErrorCode::InvalidArgument:
      case ErrorCode::Failed:
      case ErrorCode::Timeout:
      case ErrorCode::Overloaded:
        return true;
    }
    return false;
}

/** Journal-write fault knobs shared with the atomic-write hook. */
struct IoFaults
{
    bool enabled = false;
    double tearP = 0.0;
    double failP = 0.0;
    std::string dirPrefix; //!< only paths under here are faulted
    Rng rng{1};
};

/** RAII install/restore for the atomic-write hook. */
struct HookGuard
{
    explicit HookGuard(AtomicWriteHook hook)
        : prev(setAtomicWriteHook(std::move(hook)))
    {
    }
    ~HookGuard() { setAtomicWriteHook(std::move(prev)); }
    AtomicWriteHook prev;
};

std::vector<fleet::WorkerAddress>
simAddresses(std::size_t workers)
{
    std::vector<fleet::WorkerAddress> addrs(workers);
    for (std::size_t i = 0; i < workers; ++i) {
        addrs[i].host = "sim";
        addrs[i].port = 7100 + static_cast<int>(i);
    }
    return addrs;
}

fleet::FleetOptions
simFleetOptions(std::size_t workers, std::uint64_t seed, SimClock &clock,
                SimNet &net)
{
    fleet::FleetOptions fo;
    fo.workers = simAddresses(workers);
    fo.requestDeadline = std::chrono::milliseconds{250};
    fo.backoffBase = std::chrono::milliseconds{20};
    fo.maxAttempts = 4;
    fo.breakerThreshold = 3;
    fo.breakerCooldown = std::chrono::milliseconds{200};
    fo.heartbeatInterval = std::chrono::milliseconds{0};
    fo.heartbeatFloor = std::chrono::milliseconds{250};
    fo.jitterSeed = seed;
    fo.clock = &clock;
    fo.dialFactory = [&net](std::size_t index,
                            const fleet::WorkerAddress &) {
        return [&net, index](std::chrono::milliseconds deadline) {
            return net.dial(index, deadline);
        };
    };
    return fo;
}

} // namespace

Result<ScenarioResult>
runScenario(const ScenarioOptions &options)
{
    if (options.scratchDir.empty()) {
        return Error{ErrorCode::InvalidArgument,
                     "scenario needs a scratch directory"};
    }
    const std::string refDir = options.scratchDir + "/ref";
    const std::string runDir = options.scratchDir + "/run";
    const std::string journalPath = runDir + "/campaign.bvfj";
    std::error_code ec;
    fs::remove_all(refDir, ec);
    fs::remove_all(runDir, ec);
    fs::create_directories(refDir, ec);
    fs::create_directories(runDir, ec);
    if (ec) {
        return Error{ErrorCode::Io,
                     "scenario cannot prepare scratch directories"};
    }

    Rng rng(options.seed ? options.seed : 1);

    // --- Scenario shape, all drawn from the seed ----------------------
    const std::size_t workers = 2 + rng.nextBounded(3);    // 2..4
    const std::size_t appCount = 6 + rng.nextBounded(7);   // 6..12
    const auto &suite = workload::evaluationSuite();
    std::vector<workload::AppSpec> apps(
        suite.begin(),
        suite.begin() + static_cast<std::ptrdiff_t>(
                            std::min(appCount, suite.size())));
    std::set<std::string> poisoned;
    for (const auto &app : apps) {
        if (rng.nextDouble() < 0.15)
            poisoned.insert(app.abbr);
    }

    auto handler = [&poisoned](std::size_t,
                               const Frame &request) -> Frame {
        switch (request.type) {
          case MsgType::PingRequest:
            return Frame{MsgType::PingResponse, request.payload};
          case MsgType::ChipEnergyRequest: {
            auto req = server::ChipEnergyRequest::decode(request.payload);
            if (!req.ok())
                return server::errorFrame(req.error());
            const std::string &abbr = req.value().query.abbr;
            if (poisoned.count(abbr)) {
                return server::errorFrame(
                    Error{ErrorCode::InvalidArgument,
                          "sim: poisoned app " + abbr});
            }
            return Frame{MsgType::ChipEnergyResponse,
                         evalApp(abbr).encode()};
          }
          default:
            return server::errorFrame(Error{
                ErrorCode::InvalidArgument, "sim: unexpected message"});
        }
    };

    fleet::FleetCampaignOptions campaignBase;
    campaignBase.jobs = 1; // single-threaded: determinism is the point
    campaignBase.maxRetries = 1;

    // --- Reference pass: zero faults, the "serial" truth --------------
    std::string reference;
    std::uint32_t digest = 0;
    {
        SimClock clock;
        SimNet net(clock, rng.fork(), workers, handler);
        fleet::Coordinator coord(
            simFleetOptions(workers, options.seed, clock, net));
        auto fco = campaignBase;
        fco.reportPath = refDir + "/report.txt"; // for diffing failures
        fleet::FleetCampaign fc(coord, fco);
        digest = fc.configDigest(apps);
        auto out = fc.run(apps);
        if (!out.ok()) {
            return Error{ErrorCode::Failed,
                         "scenario reference pass failed: "
                             + out.error().message};
        }
        reference = out.value().report.render();
    }

    // --- Faulty pass --------------------------------------------------
    ScenarioResult result;
    SimClock clock;
    Rng ioRng = rng.fork();
    SimNet net(clock, rng.fork(), workers, handler);
    net.faults().dropRequest = rng.nextDouble() * 0.08;
    net.faults().truncateRequest = rng.nextDouble() * 0.05;
    net.faults().corruptRequest = rng.nextDouble() * 0.08;
    net.faults().dropResponse = rng.nextDouble() * 0.08;
    net.faults().truncateResponse = rng.nextDouble() * 0.05;
    net.faults().corruptResponse = rng.nextDouble() * 0.08;
    net.faults().duplicateResponse = rng.nextDouble() * 0.10;
    net.faults().connectFail = rng.nextDouble() * 0.10;
    net.faults().latency =
        std::chrono::milliseconds{1 + rng.nextBounded(4)};
    net.setOpBudget(300000);
    net.setTimeBudget(std::chrono::minutes{30});

    fleet::Coordinator coord(
        simFleetOptions(workers, options.seed ^ 0xfau, clock, net));

    // Worker kills and restarts, scheduled on simulated time. Each
    // restart probes so the revived worker rejoins routing the way a
    // live heartbeat would readmit it.
    const int kills = static_cast<int>(rng.nextBounded(workers + 1));
    result.kills = kills;
    for (int k = 0; k < kills; ++k) {
        const std::size_t victim = rng.nextBounded(workers);
        const auto at =
            std::chrono::milliseconds{5 + rng.nextBounded(1500)};
        const auto back =
            at + std::chrono::milliseconds{50 + rng.nextBounded(400)};
        clock.schedule(at, [&net, victim] { net.kill(victim); });
        clock.schedule(back, [&net, &coord, victim] {
            net.restart(victim);
            coord.probeWorkersOnce();
        });
    }

    auto ioFaults = std::make_shared<IoFaults>();
    ioFaults->enabled = true;
    ioFaults->tearP = rng.nextDouble() * 0.15;
    ioFaults->failP = rng.nextDouble() * 0.15;
    ioFaults->dirPrefix = runDir;
    ioFaults->rng = ioRng;
    HookGuard hookGuard(
        [ioFaults](const std::string &path,
                   std::string_view data) -> std::optional<Result<void>> {
            if (!ioFaults->enabled
                || path.rfind(ioFaults->dirPrefix, 0) != 0)
                return std::nullopt;
            const double r = ioFaults->rng.nextDouble();
            if (r < ioFaults->tearP) {
                // Torn write: a prefix lands, the tail is lost, and
                // the caller is told the write failed -- the shape a
                // crash between write and fsync leaves on disk.
                std::ofstream f(path,
                                std::ios::binary | std::ios::trunc);
                f.write(data.data(),
                        static_cast<std::streamsize>(
                            ioFaults->rng.nextBounded(data.size() + 1)));
                Result<void> torn = Error{ErrorCode::Io,
                                          "sim: torn journal write"};
                return torn;
            }
            if (r < ioFaults->tearP + ioFaults->failP) {
                // Failed fsync / ENOSPC: nothing lands, old content
                // (if any) survives intact.
                Result<void> failed = Error{
                    ErrorCode::Io, "sim: journal write failed (ENOSPC)"};
                return failed;
            }
            return std::nullopt;
        });

    const int phases = options.maxPhases > 0
                           ? options.maxPhases
                           : 1 + static_cast<int>(rng.nextBounded(3));
    bool success = false;
    std::string finalRender;
    Error lastError{ErrorCode::Failed, "scenario never ran"};

    for (int p = 0; p <= phases && result.violation.empty(); ++p) {
        const bool quiet = p == phases;
        if (quiet) {
            // Final phase: the storm is over. Everything must heal.
            net.quiesce();
            ioFaults->enabled = false;
            for (std::size_t w = 0; w < workers; ++w) {
                if (!net.alive(w))
                    net.restart(w);
            }
            // First probes may consume connections pooled before the
            // restarts (stale epoch); repeat until verdicts settle.
            for (int probe = 0; probe < 3; ++probe) {
                coord.probeWorkersOnce();
                clock.advance(std::chrono::milliseconds{1});
            }
            clock.advance(std::chrono::milliseconds{500}); // cooldowns
        }

        auto fco = campaignBase;
        fco.journalPath = journalPath;
        fco.resume = p > 0;
        fco.reportPath = runDir + "/report.txt";
        fco.onSalvage = [&result](const std::string &note) {
            result.salvaged.push_back(note);
        };
        fleet::FleetCampaign fc(coord, fco);
        auto out = fc.run(apps);
        ++result.phases;

        if (net.watchdogTripped()) {
            result.violation = strFormat(
                "watchdog tripped after %llu transport ops (no-hang "
                "guarantee broken)",
                static_cast<unsigned long long>(net.opsUsed()));
            break;
        }
        if (out.ok()) {
            success = true;
            finalRender = out.value().report.render();
            break;
        }
        lastError = out.error();
        result.cleanFailure = true; // a phase failed, with structure
        if (!knownErrorCode(lastError.code)) {
            result.violation =
                strFormat("error outside the taxonomy: code %d",
                          static_cast<int>(lastError.code));
            break;
        }
        if (quiet) {
            result.violation =
                "final quiet phase failed: " + lastError.message;
            break;
        }

        // Operator intervention between attempts: a journal whose
        // *header* was destroyed is refused forever by design (no
        // config digest left to trust); the refusal message tells the
        // operator to remove it, so the scenario does.
        if (auto bytes = readFileBytes(journalPath);
            bytes.ok()
            && !campaign::parseJournal(bytes.value(), digest).ok())
            fs::remove(journalPath, ec);
        clock.advance(
            std::chrono::milliseconds{50 + rng.nextBounded(300)});
    }

    result.transportOps = net.opsUsed();
    if (!result.violation.empty())
        return result;

    if (!success) {
        // Unreachable by construction (the quiet phase either
        // succeeds or sets a violation), kept as a belt.
        result.violation = "scenario ended without an outcome";
        return result;
    }

    result.identical = finalRender == reference;
    if (!result.identical) {
        result.violation =
            "report is not byte-identical to the fault-free "
            "reference";
        return result;
    }

    // The written artifacts must match what run() returned ...
    auto onDisk = readFileBytes(runDir + "/report.txt");
    if (!onDisk.ok() || onDisk.value() != reference) {
        result.violation = "report file on disk differs from render";
        return result;
    }
    // ... and the campaign journal must parse cleanly: exactly one
    // record per app, no salvage needed -- the never-double-counts
    // and never-accepts-corruption checks in one.
    auto journalBytes = readFileBytes(journalPath);
    if (!journalBytes.ok()) {
        result.violation = "campaign journal missing";
        return result;
    }
    auto parsed = campaign::parseJournal(journalBytes.value(), digest);
    if (!parsed.ok() || parsed.value().salvaged
        || parsed.value().results.size() != apps.size()) {
        result.violation = "campaign journal is not clean";
        return result;
    }

    result.ok = true;
    return result;
}

} // namespace bvf::sim
